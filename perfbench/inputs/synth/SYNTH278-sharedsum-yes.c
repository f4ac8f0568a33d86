#include <stdio.h>
int main()
{
  int i;
  int acc = 0;
  int dataa[133];
  for (i = 0; i < 133; i++)
    dataa[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 133; i++)
    acc = acc + dataa[i];
  printf("%d\n", acc);
  return 0;
}
