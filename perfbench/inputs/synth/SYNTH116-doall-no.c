#include <stdio.h>
int main()
{
  int i;
  int wk[152];
#pragma omp parallel for
  for (i = 0; i < 152; i++)
    wk[i] = i * 5;
  printf("%d\n", wk[0]);
  return 0;
}
