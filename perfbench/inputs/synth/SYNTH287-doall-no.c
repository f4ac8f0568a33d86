#include <stdio.h>
int main()
{
  int k;
  int buf[104];
#pragma omp parallel for
  for (k = 0; k < 104; k++)
    buf[k] = k * 3;
  printf("%d\n", buf[0]);
  return 0;
}
