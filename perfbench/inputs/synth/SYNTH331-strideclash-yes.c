#include <stdio.h>
int main()
{
  int i;
  int cells[104];
  for (i = 0; i < 104; i++)
    cells[i] = i;
#pragma omp parallel for
  for (i = 0; i < 50; i++)
    cells[2*i] = cells[2*i+2] + 1;
  printf("%d\n", cells[0]);
  return 0;
}
