#include <stdio.h>
int main()
{
  int it;
  int wk[69];
  for (it = 0; it < 69; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 61; it++)
    wk[it] = wk[it+8] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
