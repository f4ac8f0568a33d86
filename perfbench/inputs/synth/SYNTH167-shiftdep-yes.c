#include <stdio.h>
int main()
{
  int i;
  int buf[154];
  for (i = 0; i < 154; i++)
    buf[i] = i;
#pragma omp parallel for
  for (i = 0; i < 149; i++)
    buf[i] = buf[i+5] + 1;
  printf("%d\n", buf[0]);
  return 0;
}
