#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
  int dataa[40];
  for (it = 0; it < 40; it++)
    dataa[it] = it % 13;
#pragma omp parallel for reduction(+:acc)
  for (it = 0; it < 40; it++)
    acc = acc + dataa[it];
  printf("%d\n", acc);
  return 0;
}
