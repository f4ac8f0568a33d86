#include <stdio.h>
int main()
{
  int idx0;
  int dataa[63];
  for (idx0 = 0; idx0 < 63; idx0++)
    dataa[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 61; idx0++)
    dataa[idx0] = dataa[idx0+2] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
