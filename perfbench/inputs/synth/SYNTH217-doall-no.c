#include <stdio.h>
int main()
{
  int idx0;
  int wk[128];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 128; idx0++)
    wk[idx0] = idx0 * 1;
  printf("%d\n", wk[0]);
  return 0;
}
