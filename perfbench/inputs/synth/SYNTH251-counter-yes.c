#include <stdio.h>
int main()
{
  int it;
  int agg = 0;
#pragma omp parallel for
  for (it = 0; it < 43; it++) {
    agg += 1;
  }
  printf("%d\n", agg);
  return 0;
}
