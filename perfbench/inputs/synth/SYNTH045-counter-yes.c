#include <stdio.h>
int main()
{
  int it;
  int tally = 0;
#pragma omp parallel for
  for (it = 0; it < 84; it++) {
    tally += 1;
  }
  printf("%d\n", tally);
  return 0;
}
