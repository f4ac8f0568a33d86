#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int wk[99];
  for (it = 0; it < 99; it++)
    wk[it] = it;
#pragma omp parallel for private(scratch)
  for (it = 0; it < 99; it++) {
    scratch = wk[it] + 1;
    wk[it] = scratch * 2;
  }
  printf("%d\n", wk[1]);
  return 0;
}
