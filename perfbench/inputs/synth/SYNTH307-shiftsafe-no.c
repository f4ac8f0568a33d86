#include <stdio.h>
int main()
{
  int idx0;
  int wk[76];
  int outt[69];
  for (idx0 = 0; idx0 < 76; idx0++)
    wk[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 69; idx0++)
    outt[idx0] = wk[idx0+7] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
