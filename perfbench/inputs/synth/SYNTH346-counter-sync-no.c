#include <stdio.h>
int main()
{
  int idx0;
  int agg = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 37; idx0++) {
    #pragma omp critical
    { agg += 1; }
  }
  printf("%d\n", agg);
  return 0;
}
