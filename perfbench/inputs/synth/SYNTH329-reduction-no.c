#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
  int cells[79];
  for (it = 0; it < 79; it++)
    cells[it] = it % 13;
#pragma omp parallel for reduction(+:summ)
  for (it = 0; it < 79; it++)
    summ = summ + cells[it];
  printf("%d\n", summ);
  return 0;
}
