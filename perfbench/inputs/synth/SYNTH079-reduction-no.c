#include <stdio.h>
int main()
{
  int idx0;
  int total = 0;
  int vec[129];
  for (idx0 = 0; idx0 < 129; idx0++)
    vec[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:total)
  for (idx0 = 0; idx0 < 129; idx0++)
    total = total + vec[idx0];
  printf("%d\n", total);
  return 0;
}
