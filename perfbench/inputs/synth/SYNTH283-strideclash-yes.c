#include <stdio.h>
int main()
{
  int it;
  int dataa[104];
  for (it = 0; it < 104; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 50; it++)
    dataa[2*it] = dataa[2*it+2] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
