#include <stdio.h>
int main()
{
  int it;
  int a[106];
#pragma omp parallel for
  for (it = 0; it < 52; it++) {
    a[2*it] = it;
    a[2*it+1] = -it;
  }
  printf("%d\n", a[1]);
  return 0;
}
