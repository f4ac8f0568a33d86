#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int dataa[87];
  for (k = 0; k < 87; k++)
    dataa[k] = k;
#pragma omp parallel for private(scratch)
  for (k = 0; k < 87; k++) {
    scratch = dataa[k] + 1;
    dataa[k] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
