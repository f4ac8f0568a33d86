#include <stdio.h>
int main()
{
  int k;
  int tally = 0;
  int wk[80];
  for (k = 0; k < 80; k++)
    wk[k] = k % 13;
#pragma omp parallel for reduction(+:tally)
  for (k = 0; k < 80; k++)
    tally = tally + wk[k];
  printf("%d\n", tally);
  return 0;
}
