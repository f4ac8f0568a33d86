#include <stdio.h>
int main()
{
  int i;
  int agg = 0;
#pragma omp parallel for
  for (i = 0; i < 79; i++) {
    #pragma omp atomic
    agg += 1;
  }
  printf("%d\n", agg);
  return 0;
}
