#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int buf[73];
  for (it = 0; it < 73; it++)
    buf[it] = it;
#pragma omp parallel for private(scratch)
  for (it = 0; it < 73; it++) {
    scratch = buf[it] + 1;
    buf[it] = scratch * 2;
  }
  printf("%d\n", buf[1]);
  return 0;
}
