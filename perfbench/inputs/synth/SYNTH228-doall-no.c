#include <stdio.h>
int main()
{
  int idx0;
  int a[33];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 33; idx0++)
    a[idx0] = idx0 * 9;
  printf("%d\n", a[0]);
  return 0;
}
