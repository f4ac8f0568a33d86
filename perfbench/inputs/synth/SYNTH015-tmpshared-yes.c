#include <stdio.h>
int main()
{
  int idx0;
  int scratch = 0;
  int a[86];
  for (idx0 = 0; idx0 < 86; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 86; idx0++) {
    scratch = a[idx0] + 1;
    a[idx0] = scratch * 2;
  }
  printf("%d\n", a[1]);
  return 0;
}
