#include <stdio.h>
int main()
{
  int idx0;
  int total = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 64; idx0++) {
    #pragma omp atomic
    total += 1;
  }
  printf("%d\n", total);
  return 0;
}
