#include <stdio.h>
int main()
{
  int idx0;
  int wk[86];
  int outt[81];
  for (idx0 = 0; idx0 < 86; idx0++)
    wk[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 81; idx0++)
    outt[idx0] = wk[idx0+5] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
