#include <stdio.h>
int main()
{
  int i;
  int a[130];
  for (i = 0; i < 130; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 127; i++)
    a[i] = a[i+3] + 1;
  printf("%d\n", a[0]);
  return 0;
}
