#include <stdio.h>
int main()
{
  int idx0;
  int scratch = 0;
  int dataa[120];
  for (idx0 = 0; idx0 < 120; idx0++)
    dataa[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 120; idx0++) {
    scratch = dataa[idx0] + 1;
    dataa[idx0] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
