#include <stdio.h>
int main()
{
  int it;
  int wk[59];
#pragma omp parallel for
  for (it = 0; it < 59; it++)
    wk[it] = it * 1;
  printf("%d\n", wk[0]);
  return 0;
}
