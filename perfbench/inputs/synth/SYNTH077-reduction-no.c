#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
  int cells[90];
  for (idx0 = 0; idx0 < 90; idx0++)
    cells[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:summ)
  for (idx0 = 0; idx0 < 90; idx0++)
    summ = summ + cells[idx0];
  printf("%d\n", summ);
  return 0;
}
