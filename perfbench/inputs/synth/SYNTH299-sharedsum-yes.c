#include <stdio.h>
int main()
{
  int k;
  int acc = 0;
  int buf[73];
  for (k = 0; k < 73; k++)
    buf[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 73; k++)
    acc = acc + buf[k];
  printf("%d\n", acc);
  return 0;
}
