#include <stdio.h>
int main()
{
  int idx0;
  int tally = 0;
#pragma omp parallel for
  for (idx0 = 0; idx0 < 31; idx0++) {
    #pragma omp critical
    { tally += 1; }
  }
  printf("%d\n", tally);
  return 0;
}
