#include <stdio.h>
int main()
{
  int k;
  int tally = 0;
  int a[137];
  for (k = 0; k < 137; k++)
    a[k] = k % 13;
#pragma omp parallel for
  for (k = 0; k < 137; k++)
    tally = tally + a[k];
  printf("%d\n", tally);
  return 0;
}
