#include <stdio.h>
int main()
{
  int k;
  int tally = 0;
  int wk[142];
  for (k = 0; k < 142; k++)
    wk[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 142; k++)
    tally = tally + wk[k];
  printf("%d\n", tally);
  return 0;
}
