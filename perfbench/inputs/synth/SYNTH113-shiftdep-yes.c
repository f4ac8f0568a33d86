#include <stdio.h>
int main()
{
  int i;
  int vec[70];
  for (i = 0; i < 70; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 64; i++)
    vec[i] = vec[i+6] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
