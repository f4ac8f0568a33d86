#include <stdio.h>
int main()
{
  int i;
  int acc = 0;
  int vec[138];
  for (i = 0; i < 138; i++)
    vec[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 138; i++)
    acc = acc + vec[i];
  printf("%d\n", acc);
  return 0;
}
