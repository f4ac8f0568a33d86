#include <stdio.h>
int main()
{
  int k;
  int cells[70];
#pragma omp parallel for
  for (k = 0; k < 34; k++) {
    cells[2*k] = k;
    cells[2*k+1] = -k;
  }
  printf("%d\n", cells[1]);
  return 0;
}
