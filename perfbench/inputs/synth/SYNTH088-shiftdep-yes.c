#include <stdio.h>
int main()
{
  int idx0;
  int cells[67];
  for (idx0 = 0; idx0 < 67; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 63; idx0++)
    cells[idx0] = cells[idx0+4] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
