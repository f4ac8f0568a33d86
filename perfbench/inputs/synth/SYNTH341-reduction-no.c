#include <stdio.h>
int main()
{
  int it;
  int tally = 0;
  int wk[91];
  for (it = 0; it < 91; it++)
    wk[it] = it % 13;
#pragma omp parallel for reduction(+:tally)
  for (it = 0; it < 91; it++)
    tally = tally + wk[it];
  printf("%d\n", tally);
  return 0;
}
