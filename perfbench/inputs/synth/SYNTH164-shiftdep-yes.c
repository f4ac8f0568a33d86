#include <stdio.h>
int main()
{
  int i;
  int a[112];
  for (i = 0; i < 112; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 110; i++)
    a[i] = a[i+2] + 1;
  printf("%d\n", a[0]);
  return 0;
}
