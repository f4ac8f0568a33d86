#include <stdio.h>
int main()
{
  int k;
  int tally = 0;
  int vec[55];
  for (k = 0; k < 55; k++)
    vec[k] = k % 13;
#pragma omp parallel for reduction(+:tally)
  for (k = 0; k < 55; k++)
    tally = tally + vec[k];
  printf("%d\n", tally);
  return 0;
}
