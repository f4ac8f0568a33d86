#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
  int vec[69];
  for (idx0 = 0; idx0 < 69; idx0++)
    vec[idx0] = idx0 % 13;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 69; idx0++)
    summ = summ + vec[idx0];
  printf("%d\n", summ);
  return 0;
}
