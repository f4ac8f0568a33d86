#include <stdio.h>
int main()
{
  int i;
  int vec[79];
  int outt[71];
  for (i = 0; i < 79; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 71; i++)
    outt[i] = vec[i+8] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
