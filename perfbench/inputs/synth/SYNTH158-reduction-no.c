#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
  int wk[37];
  for (k = 0; k < 37; k++)
    wk[k] = k % 13;
#pragma omp parallel for reduction(+:agg)
  for (k = 0; k < 37; k++)
    agg = agg + wk[k];
  printf("%d\n", agg);
  return 0;
}
