#include <stdio.h>
int main()
{
  int it;
  int wk[135];
  int outt[129];
  for (it = 0; it < 135; it++)
    wk[it] = it;
#pragma omp parallel for
  for (it = 0; it < 129; it++)
    outt[it] = wk[it+6] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
