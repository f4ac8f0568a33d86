#include <stdio.h>
int main()
{
  int k;
  int tally = 0;
#pragma omp parallel for
  for (k = 0; k < 124; k++) {
    tally += 1;
  }
  printf("%d\n", tally);
  return 0;
}
