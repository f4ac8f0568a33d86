#include <stdio.h>
int main()
{
  int idx0;
  int buf[35];
  for (idx0 = 0; idx0 < 35; idx0++)
    buf[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 28; idx0++)
    buf[idx0] = buf[idx0+7] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
