#include <stdio.h>
int main()
{
  int i;
  int vec[112];
  int outt[104];
  for (i = 0; i < 112; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 104; i++)
    outt[i] = vec[i+8] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
