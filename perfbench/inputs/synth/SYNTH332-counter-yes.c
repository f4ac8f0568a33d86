#include <stdio.h>
int main()
{
  int i;
  int tally = 0;
#pragma omp parallel for
  for (i = 0; i < 117; i++) {
    tally += 1;
  }
  printf("%d\n", tally);
  return 0;
}
