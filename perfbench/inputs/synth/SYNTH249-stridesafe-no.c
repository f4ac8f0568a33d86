#include <stdio.h>
int main()
{
  int i;
  int buf[70];
#pragma omp parallel for
  for (i = 0; i < 34; i++) {
    buf[2*i] = i;
    buf[2*i+1] = -i;
  }
  printf("%d\n", buf[1]);
  return 0;
}
