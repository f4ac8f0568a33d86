#include <stdio.h>
int main()
{
  int i;
  int cells[104];
#pragma omp parallel for
  for (i = 0; i < 51; i++) {
    cells[2*i] = i;
    cells[2*i+1] = -i;
  }
  printf("%d\n", cells[1]);
  return 0;
}
