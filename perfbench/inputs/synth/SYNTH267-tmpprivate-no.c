#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int vec[42];
  for (i = 0; i < 42; i++)
    vec[i] = i;
#pragma omp parallel for private(scratch)
  for (i = 0; i < 42; i++) {
    scratch = vec[i] + 1;
    vec[i] = scratch * 2;
  }
  printf("%d\n", vec[1]);
  return 0;
}
