#include <stdio.h>
int main()
{
  int it;
  int vec[32];
  for (it = 0; it < 32; it++)
    vec[it] = it;
#pragma omp parallel for
  for (it = 0; it < 26; it++)
    vec[it] = vec[it+6] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
