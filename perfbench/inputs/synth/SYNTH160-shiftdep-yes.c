#include <stdio.h>
int main()
{
  int it;
  int a[36];
  for (it = 0; it < 36; it++)
    a[it] = it;
#pragma omp parallel for
  for (it = 0; it < 34; it++)
    a[it] = a[it+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
