#include <stdio.h>
int main()
{
  int i;
  int scratch = 0;
  int dataa[91];
  for (i = 0; i < 91; i++)
    dataa[i] = i;
#pragma omp parallel for
  for (i = 0; i < 91; i++) {
    scratch = dataa[i] + 1;
    dataa[i] = scratch * 2;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
