#include <stdio.h>
int main()
{
  int i;
  int vec[138];
  for (i = 0; i < 138; i++)
    vec[i] = i;
#pragma omp parallel for
  for (i = 0; i < 130; i++)
    vec[i] = vec[i+8] + 1;
  printf("%d\n", vec[0]);
  return 0;
}
