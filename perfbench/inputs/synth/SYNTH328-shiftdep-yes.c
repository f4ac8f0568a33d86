#include <stdio.h>
int main()
{
  int idx0;
  int cells[69];
  for (idx0 = 0; idx0 < 69; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 66; idx0++)
    cells[idx0] = cells[idx0+3] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
