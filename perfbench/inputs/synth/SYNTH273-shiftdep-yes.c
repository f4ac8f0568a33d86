#include <stdio.h>
int main()
{
  int k;
  int vec[116];
  for (k = 0; k < 116; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 113; k++)
    vec[k] = vec[k+3] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
