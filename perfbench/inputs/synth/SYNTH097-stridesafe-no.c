#include <stdio.h>
int main()
{
  int idx0;
  int wk[60];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 29; idx0++) {
    wk[2*idx0] = idx0;
    wk[2*idx0+1] = -idx0;
  }
  printf("%d\n", wk[1]);
  return 0;
}
