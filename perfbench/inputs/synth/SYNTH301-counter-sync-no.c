#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 25; idx0++) {
    #pragma omp critical
    { summ += 1; }
  }
  printf("%d\n", summ);
  return 0;
}
