#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
  int wk[146];
  for (i = 0; i < 146; i++)
    wk[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 146; i++)
    tally = tally + wk[i];
  printf("%d\n", tally);
  return 0;
}
