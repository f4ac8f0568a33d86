#include <stdio.h>
int main()
{
  int k;
  int a[124];
  for (k = 0; k < 124; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 121; k++)
    a[k] = a[k+3] + 1;
  printf("%d\n", a[0]);
  return 0;
}
