#include <stdio.h>
int main()
{
  int k;
  int a[150];
  for (k = 0; k < 150; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 73; k++)
    a[2*k] = a[2*k+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
