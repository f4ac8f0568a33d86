#include <stdio.h>
int main()
{
  int it;
  int a[58];
  for (it = 0; it < 58; it++)
    a[it] = it;
#pragma omp parallel for
  for (it = 0; it < 27; it++)
    a[2*it] = a[2*it+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
