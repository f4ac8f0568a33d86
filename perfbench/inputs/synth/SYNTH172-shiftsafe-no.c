#include <stdio.h>
int main()
{
  int i;
  int cells[93];
  int outt[89];
  for (i = 0; i < 93; i++)
    cells[i] = i;
#pragma omp parallel for
  for (i = 0; i < 89; i++)
    outt[i] = cells[i+4] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
