#include <stdio.h>
int main()
{
  int idx0;
  int scratch = 0;
  int cells[89];
  for (idx0 = 0; idx0 < 89; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 89; idx0++) {
    scratch = cells[idx0] + 1;
    cells[idx0] = scratch * 2;
  }
  printf("%d\n", cells[1]);
  return 0;
}
