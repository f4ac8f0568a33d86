#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int dataa[150];
  for (i = 0; i < 150; i++)
    dataa[i] = i % 13;
#pragma omp parallel for reduction(+:tally)
  for (i = 0; i < 150; i++)
    tally = tally + dataa[i];
  printf("%d\n", tally);
  return 0;
}
