#include <stdio.h>
int main()
{
  int k;
  int dataa[138];
  for (k = 0; k < 138; k++)
    dataa[k] = k;
#pragma omp parallel for
  for (k = 0; k < 136; k++)
    dataa[k] = dataa[k+2] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
