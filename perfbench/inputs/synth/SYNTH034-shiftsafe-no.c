#include <stdio.h>
int main()
{
  int k;
  int vec[45];
  int outt[40];
  for (k = 0; k < 45; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 40; k++)
    outt[k] = vec[k+5] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
