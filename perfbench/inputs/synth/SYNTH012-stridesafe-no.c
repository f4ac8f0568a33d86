#include <stdio.h>
int main()
{
  int i;
  int vec[70];
#pragma omp parallel for
  for (i = 0; i < 34; i++) {
    vec[2*i] = i;
    vec[2*i+1] = -i;
  }
  printf("%d\n", vec[1]);
  return 0;
}
