#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
  int vec[135];
  for (it = 0; it < 135; it++)
    vec[it] = it % 13;
#pragma omp parallel for reduction(+:summ)
  for (it = 0; it < 135; it++)
    summ = summ + vec[it];
  printf("%d\n", summ);
  return 0;
}
