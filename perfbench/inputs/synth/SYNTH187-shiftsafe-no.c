#include <stdio.h>
int main()
{
  int idx0;
  int a[36];
  int outt[31];
  for (idx0 = 0; idx0 < 36; idx0++)
    a[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 31; idx0++)
    outt[idx0] = a[idx0+5] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
