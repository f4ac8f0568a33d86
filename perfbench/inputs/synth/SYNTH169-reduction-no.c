#include <stdio.h>
int main()
{
  int it;
  int total = 0;
  int dataa[103];
  for (it = 0; it < 103; it++)
    dataa[it] = it % 13;
#pragma omp parallel for reduction(+:total)
  for (it = 0; it < 103; it++)
    total = total + dataa[it];
  printf("%d\n", total);
  return 0;
}
