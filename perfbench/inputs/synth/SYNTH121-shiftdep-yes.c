#include <stdio.h>
int main()
{
  int idx0;
  int cells[141];
  for (idx0 = 0; idx0 < 141; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 133; idx0++)
    cells[idx0] = cells[idx0+8] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
