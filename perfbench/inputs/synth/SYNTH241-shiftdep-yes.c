#include <stdio.h>
int main()
{
  int i;
  int wk[62];
  for (i = 0; i < 62; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 56; i++)
    wk[i] = wk[i+6] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
