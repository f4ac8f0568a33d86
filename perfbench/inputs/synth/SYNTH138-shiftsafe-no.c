#include <stdio.h>
int main()
{
  int idx0;
  int a[118];
  int outt[111];
  for (idx0 = 0; idx0 < 118; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 111; idx0++)
    outt[idx0] = a[idx0+7] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
