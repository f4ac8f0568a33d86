#include <stdio.h>
int main()
{
  int k;
  int cells[83];
  for (k = 0; k < 83; k++)
    cells[k] = k;
#pragma omp parallel for
  for (k = 0; k < 75; k++)
    cells[k] = cells[k+8] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
