#include <stdio.h>
int main()
{
  int i;
  int acc = 0;
  int dataa[62];
  for (i = 0; i < 62; i++)
    dataa[i] = i % 13;
#pragma omp parallel for reduction(+:acc)
  for (i = 0; i < 62; i++)
    acc = acc + dataa[i];
  printf("%d\n", acc);
  return 0;
}
