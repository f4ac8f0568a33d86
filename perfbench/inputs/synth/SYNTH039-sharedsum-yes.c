#include <stdio.h>
int main()
{
  int it;
  int total = 0;
  int a[168];
  for (it = 0; it < 168; it++)
    a[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 168; it++)
    total = total + a[it];
  printf("%d\n", total);
  return 0;
}
