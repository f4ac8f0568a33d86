#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int cells[159];
  for (i = 0; i < 159; i++)
    cells[i] = i % 13;
#pragma omp parallel for reduction(+:tally)
  for (i = 0; i < 159; i++)
    tally = tally + cells[i];
  printf("%d\n", tally);
  return 0;
}
