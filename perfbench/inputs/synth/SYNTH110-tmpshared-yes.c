#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int a[99];
  for (k = 0; k < 99; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 99; k++) {
    scratch = a[k] + 1;
    a[k] = scratch * 2;
  }
  printf("%d\n", a[1]);
  return 0;
}
