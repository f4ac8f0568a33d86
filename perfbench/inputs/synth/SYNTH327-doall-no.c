#include <stdio.h>
int main()
{
  int i;
  int vec[133];
#pragma omp parallel for
  for (i = 0; i < 133; i++)
    vec[i] = i * 4;
  printf("%d\n", vec[0]);
  return 0;
}
