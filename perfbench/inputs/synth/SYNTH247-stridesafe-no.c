#include <stdio.h>
int main()
{
  int k;
  int buf[78];
#pragma omp parallel for
  for (k = 0; k < 38; k++) {
    buf[2*k] = k;
    buf[2*k+1] = -k;
  }
  printf("%d\n", buf[1]);
  return 0;
}
