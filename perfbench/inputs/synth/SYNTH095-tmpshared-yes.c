#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int cells[94];
  for (i = 0; i < 94; i++)
    cells[i] = i;
#pragma omp parallel for
  for (i = 0; i < 94; i++) {
    scratch = cells[i] + 1;
    cells[i] = scratch * 2;
  }
  printf("%d\n", cells[1]);
  return 0;
}
