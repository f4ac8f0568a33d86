#include <stdio.h>
int main()
{
  int idx0;
  int buf[34];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 16; idx0++) {
    buf[2*idx0] = idx0;
    buf[2*idx0+1] = -idx0;
  }
  printf("%d\n", buf[1]);
  return 0;
}
