#include <stdio.h>
int main()
{
  int i;
  int a[193];
#pragma omp parallel for
  for (i = 0; i < 193; i++)
    a[i] = i * 9;
  printf("%d\n", a[0]);
  return 0;
}
