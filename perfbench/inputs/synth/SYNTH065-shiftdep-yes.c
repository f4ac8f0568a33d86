#include <stdio.h>
int main()
{
  int it;
  int vec[155];
  for (it = 0; it < 155; it++)
    vec[it] = it;
#pragma omp parallel for
  for (it = 0; it < 153; it++)
    vec[it] = vec[it+2] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
