#include <stdio.h>
int main()
{
  int idx0;
  int total = 0;
  int a[129];
  for (idx0 = 0; idx0 < 129; idx0++)
    a[idx0] = idx0 % 13;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 129; idx0++)
    total = total + a[idx0];
  printf("%d\n", total);
  return 0;
}
