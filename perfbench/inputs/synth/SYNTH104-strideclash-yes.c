#include <stdio.h>
int main()
{
  int it;
  int cells[126];
  for (it = 0; it < 126; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 61; it++)
    cells[2*it] = cells[2*it+2] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
