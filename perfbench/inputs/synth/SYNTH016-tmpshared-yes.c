#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int a[112];
  for (k = 0; k < 112; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 112; k++) {
    scratch = a[k] + 1;
    a[k] = scratch * 2;
  }
  printf("%d\n", a[1]);
  return 0;
}
