#include <stdio.h>
int main()
{
  int it;
  int a[92];
#pragma omp parallel for
  for (it = 0; it < 45; it++) {
    a[2*it] = it;
    a[2*it+1] = -it;
  }
  printf("%d\n", a[1]);
  return 0;
}
