#include <stdio.h>
int main()
{
  int idx0;
  int summ = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 89; idx0++) {
    #pragma omp atomic
    summ += 1;
  }
  printf("%d\n", summ);
  return 0;
}
