#include <stdio.h>
int main()
{
  int k;
  int scratch = 0;
  int vec[119];
  for (k = 0; k < 119; k++)
    vec[k] = k;
#pragma omp parallel for private(scratch)
  for (k = 0; k < 119; k++) {
    scratch = vec[k] + 1;
    vec[k] = scratch * 2;
  }
  printf("%d\n", vec[1]);
  return 0;
}
