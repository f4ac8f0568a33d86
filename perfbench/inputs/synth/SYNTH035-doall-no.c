#include <stdio.h>
int main()
{
  int it;
  int vec[119];
#pragma omp parallel for
  for (it = 0; it < 119; it++)
    vec[it] = it * 6;
  printf("%d\n", vec[0]);
  return 0;
}
