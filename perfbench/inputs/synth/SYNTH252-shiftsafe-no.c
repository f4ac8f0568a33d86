#include <stdio.h>
int main()
{
  int idx0;
  int dataa[132];
  int outt[125];
  for (idx0 = 0; idx0 < 132; idx0++)
    dataa[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 125; idx0++)
    outt[idx0] = dataa[idx0+7] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
