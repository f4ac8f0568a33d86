#include <stdio.h>
int main()
{
  int it;
  int acc = 0;
  int vec[59];
  for (it = 0; it < 59; it++)
    vec[it] = it % 13;
#pragma omp parallel for
  for (it = 0; it < 59; it++)
    acc = acc + vec[it];
  printf("%d\n", acc);
  return 0;
}
