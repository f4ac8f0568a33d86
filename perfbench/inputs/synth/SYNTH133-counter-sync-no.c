#include <stdio.h>
int main()
{
  int it;
  int tally = 0;
#pragma omp parallel for
  for (it = 0; it < 24; it++) {
    #pragma omp critical
    { tally += 1; }
  }
  printf("%d\n", tally);
  return 0;
}
