#include <stdio.h>
int main()
{
  int k;
  int a[109];
  int outt[103];
  for (k = 0; k < 109; k++)
    a[k] = k;
#pragma omp parallel for
  for (k = 0; k < 103; k++)
    outt[k] = a[k+6] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
