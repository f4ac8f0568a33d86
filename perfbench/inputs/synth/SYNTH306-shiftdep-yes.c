#include <stdio.h>
int main()
{
  int idx0;
  int buf[77];
  for (idx0 = 0; idx0 < 77; idx0++)
    buf[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 75; idx0++)
    buf[idx0] = buf[idx0+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
