#include <stdio.h>
int main()
{
  int it;
  int buf[136];
  for (it = 0; it < 136; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 66; it++)
    buf[2*it] = buf[2*it+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
