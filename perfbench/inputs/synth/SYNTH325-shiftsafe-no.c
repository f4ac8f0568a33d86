#include <stdio.h>
int main()
{
  int k;
  int buf[46];
  int outt[45];
  for (k = 0; k < 46; k++)
    buf[k] = k;
#pragma omp parallel for
  for (k = 0; k < 45; k++)
    outt[k] = buf[k+1] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
