#include <stdio.h>
int main()
{
  int k;
  int vec[135];
  int outt[130];
  for (k = 0; k < 135; k++)
    vec[k] = k;
#pragma omp parallel for
  for (k = 0; k < 130; k++)
    outt[k] = vec[k+5] + 1;
  printf("%d\n", outt[0]);
  return 0;
}
