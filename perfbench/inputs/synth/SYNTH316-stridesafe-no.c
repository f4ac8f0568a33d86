#include <stdio.h>
int main()
{
  int k;
  int a[134];
#pragma omp parallel for
  for (k = 0; k < 66; k++) {
    a[2*k] = k;
    a[2*k+1] = -k;
  }
  printf("%d\n", a[1]);
  return 0;
}
