#include <stdio.h>
int main()
{
  int it;
  int cells[41];
  int outt[35];
  for (it = 0; it < 41; it++)
    cells[it] = it;
#pragma omp parallel for
  for (it = 0; it < 35; it++)
    outt[it] = cells[it+6] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
