#include <stdio.h>
int main()
{
  int idx0;
  int total = 0;
  int dataa[127];
  for (idx0 = 0; idx0 < 127; idx0++)
    dataa[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:total)
  for (idx0 = 0; idx0 < 127; idx0++)
    total = total + dataa[idx0];
  printf("%d\n", total);
  return 0;
}
