#include <stdio.h>
int main()
{
  int i;
  int acc = 0;
  int cells[158];
  for (i = 0; i < 158; i++)
    cells[i] = i % 13;
#pragma omp parallel for
  for (i = 0; i < 158; i++)
    acc = acc + cells[i];
  printf("%d\n", acc);
  return 0;
}
