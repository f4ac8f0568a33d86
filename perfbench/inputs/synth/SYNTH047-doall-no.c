#include <stdio.h>
int main()
{
  int k;
  int a[82];
#pragma omp parallel for
  for (k = 0; k < 82; k++)
    a[k] = k * 8;
  printf("%d\n", a[0]);
  return 0;
}
