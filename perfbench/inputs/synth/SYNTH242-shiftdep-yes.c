#include <stdio.h>
int main()
{
  int it;
  int a[45];
  for (it = 0; it < 45; it++)
    a[it] = it;
#pragma omp parallel for
  for (it = 0; it < 41; it++)
    a[it] = a[it+4] + 1;
  printf("%d\n", a[0]);
  return 0;
}
