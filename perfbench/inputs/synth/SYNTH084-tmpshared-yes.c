#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int buf[41];
  for (i = 0; i < 41; i++)
    buf[i] = i;
#pragma omp parallel for
  for (i = 0; i < 41; i++) {
    scratch = buf[i] + 1;
    buf[i] = scratch * 2;
  }
  printf("%d\n", buf[1]);
  return 0;
}
