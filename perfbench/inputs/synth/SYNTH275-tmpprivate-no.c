#include <stdio.h>
int main()
{
  int idx0;
  int scratch = 0;
  int buf[125];
  for (idx0 = 0; idx0 < 125; idx0++)
    buf[idx0] = idx0;
#pragma omp parallel for private(scratch)
  for (idx0 = 0; idx0 < 125; idx0++) {
    scratch = buf[idx0] + 1;
    buf[idx0] = scratch * 2;
  }
  printf("%d\n", buf[1]);
  return 0;
}
