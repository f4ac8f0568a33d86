#include <stdio.h>
int main()
{
  int k;
  int acc = 0;
  int vec[161];
  for (k = 0; k < 161; k++)
    vec[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 161; k++)
    acc = acc + vec[k];
  printf("%d\n", acc);
  return 0;
}
