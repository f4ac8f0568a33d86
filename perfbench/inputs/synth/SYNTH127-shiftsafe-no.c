#include <stdio.h>
int main()
{
  int i;
  int dataa[70];
  int outt[62];
  for (i = 0; i < 70; i++)
    dataa[i] = i;
#pragma omp parallel for
  for (i = 0; i < 62; i++)
    outt[i] = dataa[i+8] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
