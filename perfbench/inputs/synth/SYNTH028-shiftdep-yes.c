#include <stdio.h>
int main()
{
  int idx0;
  int wk[73];
  for (idx0 = 0; idx0 < 73; idx0++)
    wk[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 71; idx0++)
    wk[idx0] = wk[idx0+2] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
