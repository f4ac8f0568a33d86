#include <stdio.h>
int main()
{
  int idx0;
  int tally = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 101; idx0++) {
    #pragma omp atomic
    tally += 1;
  }
  printf("%d\n", tally);
  return 0;
}
