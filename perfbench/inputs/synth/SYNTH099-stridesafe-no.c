#include <stdio.h>
int main()
{
  int it;
  int cells[132];
#pragma omp parallel for
  for (it = 0; it < 65; it++) {
    cells[2*it] = it;
    cells[2*it+1] = -it;
  }
  printf("%d\n", cells[1]);
  return 0;
}
