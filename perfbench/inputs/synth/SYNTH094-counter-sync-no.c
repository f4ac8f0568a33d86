#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
#pragma omp parallel for
  for (i = 0; i < 127; i++) {
    #pragma omp critical
    { tally += 1; }
  }
  printf("%d\n", tally);
  return 0;
}
