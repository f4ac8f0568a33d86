#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
  int cells[37];
  for (it = 0; it < 37; it++)
    cells[it] = it % 13;
#pragma omp parallel for reduction(+:acc)
  for (it = 0; it < 37; it++)
    acc = acc + cells[it];
  printf("%d\n", acc);
  return 0;
}
