#include <stdio.h>
int main()
{
  int it;
  int buf[93];
  for (it = 0; it < 93; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 89; it++)
    buf[it] = buf[it+4] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
