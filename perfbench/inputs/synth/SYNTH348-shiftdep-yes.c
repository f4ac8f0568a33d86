#include <stdio.h>
int main()
{
  int k;
  int a[127];
  for (k = 0; k < 127; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 120; k++)
    a[k] = a[k+7] + 1;
  printf("%d\n", a[0]);
  return 0;
}
