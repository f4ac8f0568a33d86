#include <stdio.h>
int main()
{
  int it;
  int a[113];
  for (it = 0; it < 113; it++)
    a[it] = it;
#pragma omp parallel for
  for (it = 0; it < 112; it++)
    a[it] = a[it+1] + 1;
  printf("%d\n", a[0]);
  return 0;
}
