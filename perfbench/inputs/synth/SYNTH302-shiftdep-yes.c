#include <stdio.h>
int main()
{
  int i;
  int wk[141];
  for (i = 0; i < 141; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 139; i++)
    wk[i] = wk[i+2] + 1;
  printf("%d\n", wk[0]);
  return 0;
}
