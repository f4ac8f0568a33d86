#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int vec[79];
  for (k = 0; k < 79; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 79; k++) {
    scratch = vec[k] + 1;
    vec[k] = scratch * 2;
  }
  printf("%d\n", vec[1]);
  return 0;
}
