#include <stdio.h>
int main()
{
  int it;
  int wk[110];
#pragma omp parallel for
  for (it = 0; it < 54; it++) {
    wk[2*it] = it;
    wk[2*it+1] = -it;
  }
  printf("%d\n", wk[1]);
  return 0;
}
