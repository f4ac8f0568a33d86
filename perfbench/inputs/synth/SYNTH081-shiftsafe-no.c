#include <stdio.h>
int main()
{
  int k;
  int a[49];
  int outt[47];
  for (k = 0; k < 49; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 47; k++)
    outt[k] = a[k+2] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
