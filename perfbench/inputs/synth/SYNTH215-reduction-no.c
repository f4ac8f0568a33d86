#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
  int wk[178];
  for (it = 0; it < 178; it++)
    wk[it] = it % 13;
#pragma omp parallel for reduction(+:acc)
  for (it = 0; it < 178; it++)
    acc = acc + wk[it];
  printf("%d\n", acc);
  return 0;
}
