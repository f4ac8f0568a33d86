#include <stdio.h>
int main()
{
  int it;
  int summ = 0;
#pragma omp parallel for
  for (it = 0; it < 107; it++) {
    summ += 1;
  }
  printf("%d\n", summ);
  return 0;
}
