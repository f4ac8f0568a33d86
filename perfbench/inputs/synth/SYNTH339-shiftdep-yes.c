#include <stdio.h>
int main()
{
  int it;
  int cells[112];
  for (it = 0; it < 112; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 107; it++)
    cells[it] = cells[it+5] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
