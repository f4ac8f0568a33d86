#include <stdio.h>
int main()
{
  int i;
  int dataa[89];
  for (i = 0; i < 89; i++)
    dataa[i] = i;
#pragma omp parallel for
  for (i = 0; i < 84; i++)
    dataa[i] = dataa[i+5] + 1;
  printf("%d\n", dataa[0]);
  return 0;
}
