#include <stdio.h>
int main()
{
  int it;
  int dataa[124];
  for (it = 0; it < 124; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 118; it++)
    dataa[it] = dataa[it+6] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
