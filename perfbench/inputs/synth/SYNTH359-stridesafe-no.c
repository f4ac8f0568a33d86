#include <stdio.h>
int main()
{
  int k;
  int vec[100];
#pragma omp parallel for
  for (k = 0; k < 49; k++) {
    vec[2*k] = k;
    vec[2*k+1] = -k;
  }
  printf("%d\n", vec[1]);
  return 0;
}
