#include <stdio.h>
int main()
{
  int i;
  int a[139];
  int outt[135];
  for (i = 0; i < 139; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 135; i++)
    outt[i] = a[i+4] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
