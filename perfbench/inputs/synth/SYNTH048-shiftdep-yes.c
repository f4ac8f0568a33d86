#include <stdio.h>
int main()
{
  int i;
  int cells[94];
  for (i = 0; i < 94; i++)
    cells[i] = i;
#pragma omp parallel for
  for (i = 0; i < 93; i++)
    cells[i] = cells[i+1] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
