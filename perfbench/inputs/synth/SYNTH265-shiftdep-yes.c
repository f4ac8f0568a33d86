#include <stdio.h>
int main()
{
  int i;
  int wk[118];
  for (i = 0; i < 118; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 110; i++)
    wk[i] = wk[i+8] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
