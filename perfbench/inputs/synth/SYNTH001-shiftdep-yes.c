#include <stdio.h>
int main()
{
  int k;
  int dataa[129];
  for (k = 0; k < 129; k++)
    dataa[k] = k;
#pragma omp parallel for
  for (k = 0; k < 121; k++)
    dataa[k] = dataa[k+8] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
