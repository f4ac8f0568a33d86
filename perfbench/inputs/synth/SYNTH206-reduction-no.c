#include <stdio.h>
int main()
{
  int it;
  int tally = 0;
  int a[73];
  for (it = 0; it < 73; it++)
    a[it] = it % 13;
#pragma omp parallel for reduction(+:tally)
  for (it = 0; it < 73; it++)
    tally = tally + a[it];
  printf("%d\n", tally);
  return 0;
}
