#include <stdio.h>
int main()
{
  int it;
  int vec[102];
#pragma omp parallel for
  for (it = 0; it < 50; it++) {
    vec[2*it] = it;
    vec[2*it+1] = -it;
  }
  printf("%d\n", vec[1]);
  return 0;
}
