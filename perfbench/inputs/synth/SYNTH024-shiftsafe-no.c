#include <stdio.h>
int main()
{
  int it;
  int dataa[100];
  int outt[96];
  for (it = 0; it < 100; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 96; it++)
    outt[it] = dataa[it+4] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
