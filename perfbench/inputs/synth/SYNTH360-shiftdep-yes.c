#include <stdio.h>
int main()
{
  int it;
  int vec[48];
  for (it = 0; it < 48; it++)
    vec[it] = it;
#pragma omp parallel for
  for (it = 0; it < 44; it++)
    vec[it] = vec[it+4] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
