#include <stdio.h>
int main()
{
  int it;
  int cells[73];
  for (it = 0; it < 73; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 66; it++)
    cells[it] = cells[it+7] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
