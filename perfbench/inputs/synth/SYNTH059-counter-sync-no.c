#include <stdio.h>
int main()
{
  int it;
  int total = 0;
#pragma omp parallel for
  for (it = 0; it < 30; it++) {
    #pragma omp critical
    { total += 1; }
  }
  printf("%d\n", total);
  return 0;
}
