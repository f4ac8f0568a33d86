#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int dataa[58];
  for (k = 0; k < 58; k++)
    dataa[k] = k;
#pragma omp parallel for
  for (k = 0; k < 58; k++) {
    scratch = dataa[k] + 1;
    dataa[k] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
