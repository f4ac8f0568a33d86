#include <stdio.h>
int main()
{
  int it;
  int buf[103];
  for (it = 0; it < 103; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 95; it++)
    buf[it] = buf[it+8] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
