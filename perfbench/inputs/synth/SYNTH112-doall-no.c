#include <stdio.h>
int main()
{
  int i;
  int vec[54];
#pragma omp parallel for
  for (i = 0; i < 54; i++)
    vec[i] = i * 2;
  printf("%d\n", vec[0]);
  return 0;
}
