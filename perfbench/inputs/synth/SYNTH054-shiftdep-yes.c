#include <stdio.h>
int main()
{
  int i;
  int vec[68];
  for (i = 0; i < 68; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 64; i++)
    vec[i] = vec[i+4] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
