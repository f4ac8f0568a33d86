#include <stdio.h>
int main()
{
  int i;
  int summ = 0;
#pragma omp parallel for
  for (i = 0; i < 45; i++) {
    summ += 1;
  }
  printf("%d\n", summ);
  return 0;
}
