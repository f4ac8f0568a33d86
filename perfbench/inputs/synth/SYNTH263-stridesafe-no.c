#include <stdio.h>
int main()
{
  int idx0;
  int cells[42];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 20; idx0++) {
    cells[2*idx0] = idx0;
    cells[2*idx0+1] = -idx0;
  }
  printf("%d\n", cells[1]);
  return 0;
}
