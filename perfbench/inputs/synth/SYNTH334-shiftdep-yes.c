#include <stdio.h>
int main()
{
  int i;
  int dataa[92];
  for (i = 0; i < 92; i++)
    dataa[i] = i;
#pragma omp parallel for
  for (i = 0; i < 84; i++)
    dataa[i] = dataa[i+8] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
