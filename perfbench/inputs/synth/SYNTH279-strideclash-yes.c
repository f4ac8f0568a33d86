#include <stdio.h>
int main()
{
  int idx0;
  int vec[84];
  for (idx0 = 0; idx0 < 84; idx0++)
    vec[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 40; idx0++)
    vec[2*idx0] = vec[2*idx0+2] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
