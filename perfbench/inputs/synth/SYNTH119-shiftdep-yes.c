#include <stdio.h>
int main()
{
  int it;
  int buf[98];
  for (it = 0; it < 98; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 97; it++)
    buf[it] = buf[it+1] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
