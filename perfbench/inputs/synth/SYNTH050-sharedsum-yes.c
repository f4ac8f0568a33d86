#include <stdio.h>
int main()
{
  int it;
  int agg = 0;
  int dataa[180];
  for (it = 0; it < 180; it++)
    dataa[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 180; it++)
    agg = agg + dataa[it];
  printf("%d\n", agg);
  return 0;
}
