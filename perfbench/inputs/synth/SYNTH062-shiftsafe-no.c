#include <stdio.h>
int main()
{
  int it;
  int buf[129];
  int outt[125];
  for (it = 0; it < 129; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 125; it++)
    outt[it] = buf[it+4] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
