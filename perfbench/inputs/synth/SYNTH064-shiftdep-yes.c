#include <stdio.h>
int main()
{
  int i;
  int cells[125];
  for (i = 0; i < 125; i++)
    cells[i] = i;
#pragma omp parallel for
  for (i = 0; i < 124; i++)
    cells[i] = cells[i+1] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
