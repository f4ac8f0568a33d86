#include <stdio.h>
int main()
{
  int it;
  int dataa[165];
#pragma omp parallel for
  for (it = 0; it < 165; it++)
    dataa[it] = it * 6;
  printf("%d\n", dataa[0]);
  return 0;
}
