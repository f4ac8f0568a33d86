#include <stdio.h>
int main()
{
  int idx0;
  int total = 0;
  int wk[147];
  for (idx0 = 0; idx0 < 147; idx0++)
    wk[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:total)
  for (idx0 = 0; idx0 < 147; idx0++)
    total = total + wk[idx0];
  printf("%d\n", total);
  return 0;
}
