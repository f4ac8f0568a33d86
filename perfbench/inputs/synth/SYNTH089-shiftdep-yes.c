#include <stdio.h>
int main()
{
  int idx0;
  int a[31];
  for (idx0 = 0; idx0 < 31; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 25; idx0++)
    a[idx0] = a[idx0+6] + 1;
  printf("%d\n", a[0]);
  return 0;
}
