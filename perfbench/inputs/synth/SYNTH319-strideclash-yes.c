#include <stdio.h>
int main()
{
  int it;
  int a[80];
  for (it = 0; it < 80; it++)
    a[it] = it;
#pragma omp parallel for
  for (it = 0; it < 38; it++)
    a[2*it] = a[2*it+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
