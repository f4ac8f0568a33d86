#include <stdio.h>
int main()
{
  int idx0;
  int buf[148];
  for (idx0 = 0; idx0 < 148; idx0++)
    buf[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 147; idx0++)
    buf[idx0] = buf[idx0+1] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
