#include <stdio.h>
int main()
{
  int i;
  int total = 0;
#pragma omp parallel for
  for (i = 0; i < 75; i++) {
    total += 1;
  }
  printf("%d\n", total);
  return 0;
}
