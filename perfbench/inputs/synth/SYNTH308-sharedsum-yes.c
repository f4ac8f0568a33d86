#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int cells[168];
  for (i = 0; i < 168; i++)
    cells[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 168; i++)
    tally = tally + cells[i];
  printf("%d\n", tally);
  return 0;
}
