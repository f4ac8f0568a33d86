#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
  int dataa[47];
  for (it = 0; it < 47; it++)
    dataa[it] = it % 13;
#pragma omp parallel for reduction(+:acc)
  for (it = 0; it < 47; it++)
    acc = acc + dataa[it];
  printf("%d\n", acc);
  return 0;
}
