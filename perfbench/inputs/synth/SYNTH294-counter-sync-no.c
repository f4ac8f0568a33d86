#include <stdio.h>
int main()
{
  int k;
  int total = 0;
#pragma omp parallel for
  for (k = 0; k < 125; k++) {
    #pragma omp atomic
    total += 1;
  }
  printf("%d\n", total);
  return 0;
}
