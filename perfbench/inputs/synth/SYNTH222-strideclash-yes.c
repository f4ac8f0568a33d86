#include <stdio.h>
int main()
{
  int i;
  int wk[50];
  for (i = 0; i < 50; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 23; i++)
    wk[2*i] = wk[2*i+2] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
