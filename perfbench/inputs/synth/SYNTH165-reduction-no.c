#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
  int wk[151];
  for (it = 0; it < 151; it++)
    wk[it] = it % 13;
#pragma omp parallel for reduction(+:summ)
  for (it = 0; it < 151; it++)
    summ = summ + wk[it];
  printf("%d\n", summ);
  return 0;
}
