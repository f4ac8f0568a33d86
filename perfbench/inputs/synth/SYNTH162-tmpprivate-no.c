#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int a[72];
  for (i = 0; i < 72; i++)
    a[i] = i;
#pragma omp parallel for private(scratch)
  for (i = 0; i < 72; i++) {
    scratch = a[i] + 1;
    a[i] = scratch * 2;
  }
  printf("%d\n", a[1]);
  return 0;
}
