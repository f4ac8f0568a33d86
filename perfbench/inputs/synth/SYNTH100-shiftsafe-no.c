#include <stdio.h>
int main()
{
  int i;
  int a[104];
  int outt[99];
  for (i = 0; i < 104; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 99; i++)
    outt[i] = a[i+5] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
