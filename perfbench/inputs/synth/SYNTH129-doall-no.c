#include <stdio.h>
int main()
{
  int idx0;
  int dataa[19];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 19; idx0++)
    dataa[idx0] = idx0 * 1;
  printf("%d\n", dataa[0]);
  return 0;
}
