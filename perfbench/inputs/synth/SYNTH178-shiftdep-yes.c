#include <stdio.h>
int main()
{
  int i;
  int a[34];
  for (i = 0; i < 34; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 27; i++)
    a[i] = a[i+7] + 1;
  printf("%d\n", a[0]);
  return 0;
}
