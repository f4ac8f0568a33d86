#include <stdio.h>
int main()
{
  int it;
  int agg = 0;
  int cells[52];
  for (it = 0; it < 52; it++)
    cells[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 52; it++)
    agg = agg + cells[it];
  printf("%d\n", agg);
  return 0;
}
