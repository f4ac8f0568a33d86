#include <stdio.h>
int main()
{
  int k;
  int buf[30];
#pragma omp parallel for
  for (k = 0; k < 30; k++)
    buf[k] = k * 9;
  printf("%d\n", buf[0]);
  return 0;
}
