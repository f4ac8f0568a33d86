#include <stdio.h>
int main()
{
  int i;
  int wk[144];
  for (i = 0; i < 144; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 140; i++)
    wk[i] = wk[i+4] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
