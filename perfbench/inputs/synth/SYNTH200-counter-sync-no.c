#include <stdio.h>
int main()
{
  int k;
  int total = 0;
#pragma omp parallel for
  for (k = 0; k < 69; k++) {
    #pragma omp critical
    { total += 1; }
  }
  printf("%d\n", total);
  return 0;
}
