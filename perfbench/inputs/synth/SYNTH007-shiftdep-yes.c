#include <stdio.h>
int main()
{
  int it;
  int cells[116];
  for (it = 0; it < 116; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 115; it++)
    cells[it] = cells[it+1] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
