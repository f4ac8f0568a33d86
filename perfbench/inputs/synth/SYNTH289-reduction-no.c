#include <stdio.h>
int main()
{
  int idx0;
  int agg = 0;
  int cells[110];
  for (idx0 = 0; idx0 < 110; idx0++)
    cells[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:agg)
  for (idx0 = 0; idx0 < 110; idx0++)
    agg = agg + cells[idx0];
  printf("%d\n", agg);
  return 0;
}
