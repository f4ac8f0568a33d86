#include <stdio.h>
int main()
{
  int k;
  int wk[47];
  for (k = 0; k < 47; k++)
    wk[k] = k;
#pragma omp parallel for
  for (k = 0; k < 44; k++)
    wk[k] = wk[k+3] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
