#include <stdio.h>
int main()
{
  int k;
  int dataa[82];
  for (k = 0; k < 82; k++)
    dataa[k] = k;
#pragma omp parallel for
  for (k = 0; k < 81; k++)
    dataa[k] = dataa[k+1] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
