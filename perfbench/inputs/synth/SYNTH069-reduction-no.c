#include <stdio.h>
int main()
{
  int k;
  int summ = 0;
  int buf[117];
  for (k = 0; k < 117; k++)
    buf[k] = k % 13;
#pragma omp parallel for reduction(+:summ)
  for (k = 0; k < 117; k++)
    summ = summ + buf[k];
  printf("%d\n", summ);
  return 0;
}
