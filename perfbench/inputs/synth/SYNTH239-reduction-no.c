#include <stdio.h>
int main()
{
  int it;
  int total = 0;
  int buf[42];
  for (it = 0; it < 42; it++)
    buf[it] = it % 13;
#pragma omp parallel for reduction(+:total)
  for (it = 0; it < 42; it++)
    total = total + buf[it];
  printf("%d\n", total);
  return 0;
}
