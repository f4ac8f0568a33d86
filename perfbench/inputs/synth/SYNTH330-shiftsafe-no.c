#include <stdio.h>
int main()
{
  int idx0;
  int cells[70];
  int outt[66];
  for (idx0 = 0; idx0 < 70; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 66; idx0++)
    outt[idx0] = cells[idx0+4] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
