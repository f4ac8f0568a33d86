#include <stdio.h>
int main()
{
  int it;
  int tally = 0;
  int buf[98];
  for (it = 0; it < 98; it++)
    buf[it] = it % 13;
#pragma omp parallel for reduction(+:tally)
  for (it = 0; it < 98; it++)
    tally = tally + buf[it];
  printf("%d\n", tally);
  return 0;
}
