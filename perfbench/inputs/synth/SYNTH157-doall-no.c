#include <stdio.h>
int main()
{
  int k;
  int a[200];
#pragma omp parallel for
  for (k = 0; k < 200; k++)
    a[k] = k * 2;
  printf("%d\n", a[0]);
  return 0;
}
