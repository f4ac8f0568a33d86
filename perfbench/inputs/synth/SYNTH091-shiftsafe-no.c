#include <stdio.h>
int main()
{
  int idx0;
  int cells[142];
  int outt[134];
  for (idx0 = 0; idx0 < 142; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 134; idx0++)
    outt[idx0] = cells[idx0+8] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
