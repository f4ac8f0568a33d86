#include <stdio.h>
int main()
{
  int idx0;
  int vec[157];
  int outt[155];
  for (idx0 = 0; idx0 < 157; idx0++)
    vec[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 155; idx0++)
    outt[idx0] = vec[idx0+2] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
