#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
#pragma omp parallel for
  for (it = 0; it < 56; it++) {
    #pragma omp atomic
    acc += 1;
  }
  printf("%d\n", acc);
  return 0;
}
