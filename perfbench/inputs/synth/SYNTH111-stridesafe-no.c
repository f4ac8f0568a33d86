#include <stdio.h>
int main()
{
  int i;
  int a[120];
#pragma omp parallel for
  for (i = 0; i < 59; i++) {
    a[2*i] = i;
    a[2*i+1] = -i;
  }
  printf("%d\n", a[1]);
  return 0;
}
