#include <stdio.h>
int main()
{
  int k;
  int cells[66];
  for (k = 0; k < 66; k++)
    cells[k] = k;
#pragma omp parallel for
  for (k = 0; k < 31; k++)
    cells[2*k] = cells[2*k+2] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
