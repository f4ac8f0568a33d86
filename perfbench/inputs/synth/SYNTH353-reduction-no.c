#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
  int dataa[105];
  for (idx0 = 0; idx0 < 105; idx0++)
    dataa[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:summ)
  for (idx0 = 0; idx0 < 105; idx0++)
    summ = summ + dataa[idx0];
  printf("%d\n", summ);
  return 0;
}
