#include <stdio.h>
int main()
{
  int it;
  int buf[120];
#pragma omp parallel for
  for (it = 0; it < 59; it++) {
    buf[2*it] = it;
    buf[2*it+1] = -it;
  }
  printf("%d\n", buf[1]);
  return 0;
}
