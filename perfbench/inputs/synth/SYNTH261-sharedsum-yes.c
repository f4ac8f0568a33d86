#include <stdio.h>
int main()
{
  int k;
  int summ = 0;
  int buf[101];
  for (k = 0; k < 101; k++)
    buf[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 101; k++)
    summ = summ + buf[k];
  printf("%d\n", summ);
  return 0;
}
