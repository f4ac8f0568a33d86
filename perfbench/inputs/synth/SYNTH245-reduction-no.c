#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
  int vec[125];
  for (k = 0; k < 125; k++)
    vec[k] = k % 13;
#pragma omp parallel for reduction(+:agg)
  for (k = 0; k < 125; k++)
    agg = agg + vec[k];
  printf("%d\n", agg);
  return 0;
}
