#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int buf[143];
  for (i = 0; i < 143; i++)
    buf[i] = i;
#pragma omp parallel for private(scratch)
  for (i = 0; i < 143; i++) {
    scratch = buf[i] + 1;
    buf[i] = scratch * 2;
  }
  printf("%d\n", buf[1]);
  return 0;
}
