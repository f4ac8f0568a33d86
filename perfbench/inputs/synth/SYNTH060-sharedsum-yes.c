#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int vec[52];
  for (i = 0; i < 52; i++)
    vec[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 52; i++)
    tally = tally + vec[i];
  printf("%d\n", tally);
  return 0;
}
