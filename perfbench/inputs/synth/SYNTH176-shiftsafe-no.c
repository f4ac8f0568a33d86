#include <stdio.h>
int main()
{
  int idx0;
  int cells[125];
  int outt[124];
  for (idx0 = 0; idx0 < 125; idx0++)
    cells[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 124; idx0++)
    outt[idx0] = cells[idx0+1] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
