#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
  int cells[86];
  for (k = 0; k < 86; k++)
    cells[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 86; k++)
    agg = agg + cells[k];
  printf("%d\n", agg);
  return 0;
}
