#include <stdio.h>
int main()
{
  int k;
  int summ = 0;
  int wk[179];
  for (k = 0; k < 179; k++)
    wk[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 179; k++)
    summ = summ + wk[k];
  printf("%d\n", summ);
  return 0;
}
