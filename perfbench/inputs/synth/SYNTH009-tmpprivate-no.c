#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int dataa[34];
  for (it = 0; it < 34; it++)
    dataa[it] = it;
#pragma omp parallel for private(scratch)
  for (it = 0; it < 34; it++) {
    scratch = dataa[it] + 1;
    dataa[it] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
