#include <stdio.h>
int main()
{
  int i;
  int a[73];
  int outt[70];
  for (i = 0; i < 73; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 70; i++)
    outt[i] = a[i+3] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
