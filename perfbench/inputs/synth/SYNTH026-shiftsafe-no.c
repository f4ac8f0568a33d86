#include <stdio.h>
int main()
{
  int it;
  int dataa[90];
  int outt[82];
  for (it = 0; it < 90; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 82; it++)
    outt[it] = dataa[it+8] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
