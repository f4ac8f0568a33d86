#include <stdio.h>
int main()
{
  int k;
  int summ = 0;
#pragma omp parallel for
  for (k = 0; k < 37; k++) {
    summ += 1;
  }
  printf("%d\n", summ);
  return 0;
}
