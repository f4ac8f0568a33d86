#include <stdio.h>
int main()
{
  int idx0;
  int wk[105];
  for (idx0 = 0; idx0 < 105; idx0++)
    wk[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 97; idx0++)
    wk[idx0] = wk[idx0+8] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
