#include <stdio.h>
int main()
{
  int idx0;
  int acc = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 115; idx0++) {
    acc += 1;
  }
  printf("%d\n", acc);
  return 0;
}
