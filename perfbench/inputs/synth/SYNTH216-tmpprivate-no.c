#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int a[96];
  for (it = 0; it < 96; it++)
    a[it] = it;
#pragma omp parallel for private(scratch)
  for (it = 0; it < 96; it++) {
    scratch = a[it] + 1;
    a[it] = scratch * 2;
  }
  printf("%d\n", a[1]);
  return 0;
}
