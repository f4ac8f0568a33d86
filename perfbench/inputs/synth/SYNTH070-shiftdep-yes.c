#include <stdio.h>
int main()
{
  int k;
  int a[67];
  for (k = 0; k < 67; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 59; k++)
    a[k] = a[k+8] + 1;
  printf("%d\n", a[0]);
  return 0;
}
