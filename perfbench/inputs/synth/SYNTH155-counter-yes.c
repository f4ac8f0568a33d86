#include <stdio.h>
int main()
{
  int i;
  int acc = 0;
#pragma omp parallel for
  for (i = 0; i < 60; i++) {
    acc += 1;
  }
  printf("%d\n", acc);
  return 0;
}
