#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
  int buf[107];
  for (it = 0; it < 107; it++)
    buf[it] = it % 13;
#pragma omp parallel for reduction(+:summ)
  for (it = 0; it < 107; it++)
    summ = summ + buf[it];
  printf("%d\n", summ);
  return 0;
}
