#include <stdio.h>
int main()
{
  int it;
  int wk[50];
  for (it = 0; it < 50; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 23; it++)
    wk[2*it] = wk[2*it+2] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
