#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int vec[48];
  for (i = 0; i < 48; i++)
    vec[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 48; i++)
    tally = tally + vec[i];
  printf("%d\n", tally);
  return 0;
}
