#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int wk[143];
  for (i = 0; i < 143; i++)
    wk[i] = i % 13;
#pragma omp parallel for reduction(+:tally)
  for (i = 0; i < 143; i++)
    tally = tally + wk[i];
  printf("%d\n", tally);
  return 0;
}
