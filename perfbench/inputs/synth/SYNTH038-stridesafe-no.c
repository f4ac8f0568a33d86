#include <stdio.h>
int main()
{
  int i;
  int wk[152];
#pragma omp parallel for
  for (i = 0; i < 75; i++) {
    wk[2*i] = i;
    wk[2*i+1] = -i;
  }
  printf("%d\n", wk[1]);
  return 0;
}
