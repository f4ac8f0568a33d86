#include <stdio.h>
int main()
{
  int k;
  int buf[116];
  for (k = 0; k < 116; k++)
    buf[k] = k;
#pragma omp parallel for
  for (k = 0; k < 56; k++)
    buf[2*k] = buf[2*k+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
