#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
  int wk[67];
  for (idx0 = 0; idx0 < 67; idx0++)
    wk[idx0] = idx0 % 13;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 67; idx0++)
    summ = summ + wk[idx0];
  printf("%d\n", summ);
  return 0;
}
