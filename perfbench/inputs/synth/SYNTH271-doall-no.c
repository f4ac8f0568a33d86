#include <stdio.h>
int main()
{
  int i;
  int a[112];
#pragma omp parallel for
  for (i = 0; i < 112; i++)
    a[i] = i * 3;
  printf("%d\n", a[0]);
  return 0;
}
