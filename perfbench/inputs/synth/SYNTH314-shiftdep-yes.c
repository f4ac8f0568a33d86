#include <stdio.h>
int main()
{
  int k;
  int a[144];
  for (k = 0; k < 144; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 141; k++)
    a[k] = a[k+3] + 1;
  printf("%d\n", a[0]);
  return 0;
}
