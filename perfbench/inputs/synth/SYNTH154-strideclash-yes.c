#include <stdio.h>
int main()
{
  int idx0;
  int a[156];
  for (idx0 = 0; idx0 < 156; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 76; idx0++)
    a[2*idx0] = a[2*idx0+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
