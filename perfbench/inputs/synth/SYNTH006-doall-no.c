#include <stdio.h>
int main()
{
  int it;
  int buf[169];
#pragma omp parallel for
  for (it = 0; it < 169; it++)
    buf[it] = it * 8;
  printf("%d\n", buf[0]);
  return 0;
}
