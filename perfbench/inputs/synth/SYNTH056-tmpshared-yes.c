#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int wk[43];
  for (k = 0; k < 43; k++)
    wk[k] = k;
#pragma omp parallel for
  for (k = 0; k < 43; k++) {
    scratch = wk[k] + 1;
    wk[k] = scratch * 2;
  }
  printf("%d\n", wk[1]);
  return 0;
}
