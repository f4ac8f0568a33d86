#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int wk[77];
  for (it = 0; it < 77; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 77; it++) {
    scratch = wk[it] + 1;
    wk[it] = scratch * 2;
  }
  printf("%d\n", wk[1]);
  return 0;
}
