#include <stdio.h>
int main()
{
  int idx0;
  int acc = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 111; idx0++) {
    #pragma omp critical
    { acc += 1; }
  }
  printf("%d\n", acc);
  return 0;
}
