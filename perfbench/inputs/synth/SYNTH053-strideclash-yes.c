#include <stdio.h>
int main()
{
  int k;
  int vec[126];
  for (k = 0; k < 126; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 61; k++)
    vec[2*k] = vec[2*k+2] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
