#include <stdio.h>
int main()
{
  int i;
  int vec[133];
  for (i = 0; i < 133; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 129; i++)
    vec[i] = vec[i+4] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
