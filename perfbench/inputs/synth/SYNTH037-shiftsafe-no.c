#include <stdio.h>
int main()
{
  int idx0;
  int dataa[152];
  int outt[151];
  for (idx0 = 0; idx0 < 152; idx0++)
    dataa[idx0] = idx0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 151; idx0++)
    outt[idx0] = dataa[idx0+1] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
