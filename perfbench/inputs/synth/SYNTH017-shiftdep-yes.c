#include <stdio.h>
int main()
{
  int k;
  int buf[77];
  for (k = 0; k < 77; k++)
    buf[k] = k;
#pragma omp parallel for
  for (k = 0; k < 75; k++)
    buf[k] = buf[k+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
