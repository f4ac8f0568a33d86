#include <stdio.h>
int main()
{
  int idx0;
  int acc = 0;
  int wk[100];
  for (idx0 = 0; idx0 < 100; idx0++)
    wk[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:acc)
  for (idx0 = 0; idx0 < 100; idx0++)
    acc = acc + wk[idx0];
  printf("%d\n", acc);
  return 0;
}
