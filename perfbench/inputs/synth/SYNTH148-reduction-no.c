#include <stdio.h>
int main()
{
  int k;
  int acc = 0;
  int cells[164];
  for (k = 0; k < 164; k++)
    cells[k] = k % 13;
#pragma omp parallel for reduction(+:acc)
  for (k = 0; k < 164; k++)
    acc = acc + cells[k];
  printf("%d\n", acc);
  return 0;
}
