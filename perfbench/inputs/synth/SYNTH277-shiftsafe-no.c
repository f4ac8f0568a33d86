#include <stdio.h>
int main()
{
  int k;
  int vec[80];
  int outt[79];
  for (k = 0; k < 80; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 79; k++)
    outt[k] = vec[k+1] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
