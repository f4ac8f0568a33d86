#include <stdio.h>
int main()
{
  int idx0;
  int acc = 0;
  int vec[147];
  for (idx0 = 0; idx0 < 147; idx0++)
    vec[idx0] = idx0 % 13;
#pragma omp parallel for reduction(+:acc)
  for (idx0 = 0; idx0 < 147; idx0++)
    acc = acc + vec[idx0];
  printf("%d\n", acc);
  return 0;
}
