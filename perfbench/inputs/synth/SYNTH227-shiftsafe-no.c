#include <stdio.h>
int main()
{
  int it;
  int buf[136];
  int outt[130];
  for (it = 0; it < 136; it++)
    buf[it] = it;
#pragma omp parallel for
  for (it = 0; it < 130; it++)
    outt[it] = buf[it+6] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
