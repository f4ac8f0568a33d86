#include <stdio.h>
int main()
{
  int i;
  int a[119];
  for (i = 0; i < 119; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 113; i++)
    a[i] = a[i+6] + 1;
  printf("%d\n", a[0]);
  return 0;
}
