#include <stdio.h>
int main()
{
  int i;
  int total = 0;
#pragma omp parallel for
  for (i = 0; i < 57; i++) {
    #pragma omp atomic
    total += 1;
  }
  printf("%d\n", total);
  return 0;
}
