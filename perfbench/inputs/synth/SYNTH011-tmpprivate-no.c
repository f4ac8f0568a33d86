#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int buf[99];
  for (k = 0; k < 99; k++)
    buf[k] = k;
#pragma omp parallel for private(scratch)
  for (k = 0; k < 99; k++) {
    scratch = buf[k] + 1;
    buf[k] = scratch * 2;
  }
  printf("%d\n", buf[1]);
  return 0;
}
