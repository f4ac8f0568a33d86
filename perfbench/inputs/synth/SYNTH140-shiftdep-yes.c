#include <stdio.h>
int main()
{
  int k;
  int buf[112];
  for (k = 0; k < 112; k++)
    buf[k] = k;
#pragma omp parallel for
  for (k = 0; k < 105; k++)
    buf[k] = buf[k+7] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
