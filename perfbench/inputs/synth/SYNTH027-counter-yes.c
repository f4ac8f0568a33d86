#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
#pragma omp parallel for
  for (k = 0; k < 80; k++) {
    agg += 1;
  }
  printf("%d\n", agg);
  return 0;
}
