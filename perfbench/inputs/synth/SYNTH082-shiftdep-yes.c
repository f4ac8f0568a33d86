#include <stdio.h>
int main()
{
  int idx0;
  int a[127];
  for (idx0 = 0; idx0 < 127; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 122; idx0++)
    a[idx0] = a[idx0+5] + 1;
  printf("%d\n", a[0]);
  return 0;
}
