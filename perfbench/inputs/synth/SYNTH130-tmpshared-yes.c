#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int cells[134];
  for (k = 0; k < 134; k++)
    cells[k] = k;
#pragma omp parallel for
  for (k = 0; k < 134; k++) {
    scratch = cells[k] + 1;
    cells[k] = scratch * 2;
  }
  printf("%d\n", cells[1]);
  return 0;
}
