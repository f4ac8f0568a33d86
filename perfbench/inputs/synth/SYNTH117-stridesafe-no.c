#include <stdio.h>
int main()
{
  int idx0;
  int a[78];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 38; idx0++) {
    a[2*idx0] = idx0;
    a[2*idx0+1] = -idx0;
  }
  printf("%d\n", a[1]);
  return 0;
}
