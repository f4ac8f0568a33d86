#include <stdio.h>
int main()
{
  int it;
  int cells[104];
  for (it = 0; it < 104; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 100; it++)
    cells[it] = cells[it+4] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
