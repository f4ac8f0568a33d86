#include <stdio.h>
int main()
{
  int i;
  int summ = 0;
  int buf[98];
  for (i = 0; i < 98; i++)
    buf[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 98; i++)
    summ = summ + buf[i];
  printf("%d\n", summ);
  return 0;
}
