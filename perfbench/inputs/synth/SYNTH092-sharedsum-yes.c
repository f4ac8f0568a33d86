#include <stdio.h>
int main()
{
  int it;
  int total = 0;
  int dataa[157];
  for (it = 0; it < 157; it++)
    dataa[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 157; it++)
    total = total + dataa[it];
  printf("%d\n", total);
  return 0;
}
