#include <stdio.h>
int main()
{
  int it;
  int vec[121];
  for (it = 0; it < 121; it++)
    vec[it] = it;
#pragma omp parallel for
  for (it = 0; it < 116; it++)
    vec[it] = vec[it+5] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
