#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int vec[149];
  for (i = 0; i < 149; i++)
    vec[i] = i % 13;
#pragma omp parallel for reduction(+:tally)
  for (i = 0; i < 149; i++)
    tally = tally + vec[i];
  printf("%d\n", tally);
  return 0;
}
