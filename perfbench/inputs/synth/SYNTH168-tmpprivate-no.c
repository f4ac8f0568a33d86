#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int wk[53];
  for (k = 0; k < 53; k++)
    wk[k] = k;
#pragma omp parallel for private(scratch)
  for (k = 0; k < 53; k++) {
    scratch = wk[k] + 1;
    wk[k] = scratch * 2;
  }
  printf("%d\n", wk[1]);
  return 0;
}
