#include <stdio.h>
int main()
{
  int k;
  int wk[132];
#pragma omp parallel for
  for (k = 0; k < 132; k++)
    wk[k] = k * 1;
  printf("%d\n", wk[0]);
  return 0;
}
