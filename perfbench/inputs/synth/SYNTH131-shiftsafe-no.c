#include <stdio.h>
int main()
{
  int it;
  int dataa[144];
  int outt[142];
  for (it = 0; it < 144; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 142; it++)
    outt[it] = dataa[it+2] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
