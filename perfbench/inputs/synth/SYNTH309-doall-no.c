#include <stdio.h>
int main()
{
  int k;
  int wk[33];
#pragma omp parallel for
  for (k = 0; k < 33; k++)
    wk[k] = k * 7;
  printf("%d\n", wk[0]);
  return 0;
}
