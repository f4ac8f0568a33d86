#include <stdio.h>
int main()
{
  int it;
  int buf[114];
  for (it = 0; it < 114; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 112; it++)
    buf[it] = buf[it+2] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
