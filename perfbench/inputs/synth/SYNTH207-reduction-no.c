#include <stdio.h>
int main()
{
  int i;
  int total = 0;
  int wk[52];
  for (i = 0; i < 52; i++)
    wk[i] = i % 13;
#pragma omp parallel for reduction(+:total)
  for (i = 0; i < 52; i++)
    total = total + wk[i];
  printf("%d\n", total);
  return 0;
}
