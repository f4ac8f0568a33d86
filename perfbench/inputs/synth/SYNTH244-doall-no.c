#include <stdio.h>
int main()
{
  int idx0;
  int cells[138];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 138; idx0++)
    cells[idx0] = idx0 * 6;
  printf("%d\n", cells[0]);
  return 0;
}
