#include <stdio.h>
int main()
{
  int idx0;
  int buf[48];
  for (idx0 = 0; idx0 < 48; idx0++)
    buf[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 22; idx0++)
    buf[2*idx0] = buf[2*idx0+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
