#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
#pragma omp parallel for
  for (k = 0; k < 69; k++) {
    #pragma omp atomic
    agg += 1;
  }
  printf("%d\n", agg);
  return 0;
}
