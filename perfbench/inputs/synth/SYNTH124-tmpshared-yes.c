#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int wk[134];
  for (i = 0; i < 134; i++)
    wk[i] = i;
#pragma omp parallel for
  for (i = 0; i < 134; i++) {
    scratch = wk[i] + 1;
    wk[i] = scratch * 2;
  }
  printf("%d\n", wk[1]);
  return 0;
}
