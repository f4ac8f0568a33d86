#include <stdio.h>
int main()
{
  int k;
  int dataa[59];
  for (k = 0; k < 59; k++)
    dataa[k] = k;
#pragma omp parallel for
  for (k = 0; k < 55; k++)
    dataa[k] = dataa[k+4] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
