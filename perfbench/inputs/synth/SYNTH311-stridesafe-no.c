#include <stdio.h>
int main()
{
  int it;
  int dataa[40];
#pragma omp parallel for
  for (it = 0; it < 19; it++) {
    dataa[2*it] = it;
    dataa[2*it+1] = -it;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
