#include <stdio.h>
int main()
{
  int it;
  int vec[112];
#pragma omp parallel for
  for (it = 0; it < 55; it++) {
    vec[2*it] = it;
    vec[2*it+1] = -it;
  }
  printf("%d\n", vec[1]);
  return 0;
}
