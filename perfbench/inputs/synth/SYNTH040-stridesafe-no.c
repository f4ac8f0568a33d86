#include <stdio.h>
int main()
{
  int idx0;
  int dataa[112];
#pragma omp parallel for
  for (idx0 = 0; idx0 < 55; idx0++) {
    dataa[2*idx0] = idx0;
    dataa[2*idx0+1] = -idx0;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
