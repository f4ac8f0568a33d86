#include <stdio.h>
int main()
{
  int it;
  int total = 0;
  int wk[170];
  for (it = 0; it < 170; it++)
    wk[it] = it % 13;
#pragma omp parallel for reduction(+:total)
  for (it = 0; it < 170; it++)
    total = total + wk[it];
  printf("%d\n", total);
  return 0;
}
