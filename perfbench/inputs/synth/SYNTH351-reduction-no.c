#include <stdio.h>
int main()
{
  int it;
  int agg = 0;
  int vec[101];
  for (it = 0; it < 101; it++)
    vec[it] = it % 13;
#pragma omp parallel for reduction(+:agg)
  for (it = 0; it < 101; it++)
    agg = agg + vec[it];
  printf("%d\n", agg);
  return 0;
}
