#include <stdio.h>
int main()
{
  int it;
  int buf[156];
  for (it = 0; it < 156; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 76; it++)
    buf[2*it] = buf[2*it+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
