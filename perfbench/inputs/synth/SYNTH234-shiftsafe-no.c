#include <stdio.h>
int main()
{
  int i;
  int wk[34];
  int outt[28];
  for (i = 0; i < 34; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 28; i++)
    outt[i] = wk[i+6] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
