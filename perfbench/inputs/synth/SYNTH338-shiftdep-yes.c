#include <stdio.h>
int main()
{
  int k;
  int wk[118];
  for (k = 0; k < 118; k++)
    wk[k] = k;
#pragma omp parallel for
  for (k = 0; k < 112; k++)
    wk[k] = wk[k+6] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
