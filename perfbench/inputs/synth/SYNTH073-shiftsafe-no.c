#include <stdio.h>
int main()
{
  int it;
  int wk[142];
  int outt[140];
  for (it = 0; it < 142; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 140; it++)
    outt[it] = wk[it+2] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
