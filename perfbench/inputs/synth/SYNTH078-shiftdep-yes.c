#include <stdio.h>
int main()
{
  int it;
  int cells[39];
  for (it = 0; it < 39; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 32; it++)
    cells[it] = cells[it+7] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
