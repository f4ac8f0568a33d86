#include <stdio.h>
int main()
{
  int it;
  int wk[66];
  for (it = 0; it < 66; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 31; it++)
    wk[2*it] = wk[2*it+2] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
