#include <stdio.h>
int main()
{
  int k;
  int agg = 0;
  int dataa[104];
  for (k = 0; k < 104; k++)
    dataa[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 104; k++)
    agg = agg + dataa[k];
  printf("%d\n", agg);
  return 0;
}
