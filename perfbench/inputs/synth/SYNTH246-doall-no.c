#include <stdio.h>
int main()
{
  int k;
  int buf[93];
#pragma omp parallel for
  for (k = 0; k < 93; k++)
    buf[k] = k * 1;
  printf("%d\n", buf[0]);
  return 0;
}
