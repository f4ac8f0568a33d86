#include <stdio.h>
int main()
{
  int it;
  int buf[197];
#pragma omp parallel for
  for (it = 0; it < 197; it++)
    buf[it] = it * 5;
  printf("%d\n", buf[0]);
  return 0;
}
