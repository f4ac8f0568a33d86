#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
  int cells[72];
  for (it = 0; it < 72; it++)
    cells[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 72; it++)
    summ = summ + cells[it];
  printf("%d\n", summ);
  return 0;
}
