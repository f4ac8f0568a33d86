#include <stdio.h>
int main()
{
  int it;
  int wk[80];
  for (it = 0; it < 80; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 72; it++)
    wk[it] = wk[it+8] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
