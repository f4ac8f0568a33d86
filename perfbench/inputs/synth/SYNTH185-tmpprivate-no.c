#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int vec[121];
  for (it = 0; it < 121; it++)
    vec[it] = it;
#pragma omp parallel for private(scratch)
  for (it = 0; it < 121; it++) {
    scratch = vec[it] + 1;
    vec[it] = scratch * 2;
  }
  printf("%d\n", vec[1]);
  return 0;
}
