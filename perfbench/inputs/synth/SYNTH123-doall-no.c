#include <stdio.h>
int main()
{
  int i;
  int a[52];
#pragma omp parallel for
  for (i = 0; i < 52; i++)
    a[i] = i * 7;
  printf("%d\n", a[0]);
  return 0;
}
