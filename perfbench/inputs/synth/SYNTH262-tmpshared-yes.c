#include <stdio.h>
int main()
{
  int it;
  int scratch = 0;
  int dataa[82];
  for (it = 0; it < 82; it++)
    dataa[it] = it;
#pragma omp parallel for
  for (it = 0; it < 82; it++) {
    scratch = dataa[it] + 1;
    dataa[it] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
