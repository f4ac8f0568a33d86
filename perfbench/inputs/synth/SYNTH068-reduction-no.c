#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
  int buf[97];
  for (k = 0; k < 97; k++)
    buf[k] = k % 13;
#pragma omp parallel for reduction(+:agg)
  for (k = 0; k < 97; k++)
    agg = agg + buf[k];
  printf("%d\n", agg);
  return 0;
}
