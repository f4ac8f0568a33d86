#include <stdio.h>
int main()
{
  int idx0;
  int dataa[43];
  int outt[40];
  for (idx0 = 0; idx0 < 43; idx0++)
    dataa[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 40; idx0++)
    outt[idx0] = dataa[idx0+3] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
