#include <stdio.h>
int main()
{
  int i;
  int agg = 0;
  int a[75];
  for (i = 0; i < 75; i++)
    a[i] = i % 13;
#pragma omp parallel for reduction(+:agg)
  for (i = 0; i < 75; i++)
    agg = agg + a[i];
  printf("%d\n", agg);
  return 0;
}
