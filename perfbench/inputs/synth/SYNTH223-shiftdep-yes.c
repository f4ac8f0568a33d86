#include <stdio.h>
int main()
{
  int k;
  int wk[122];
  for (k = 0; k < 122; k++)
    wk[k] = k;
#pragma omp parallel for
  for (k = 0; k < 114; k++)
    wk[k] = wk[k+8] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
