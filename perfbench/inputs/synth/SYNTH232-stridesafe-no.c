#include <stdio.h>
int main()
{
  int i;
  int dataa[124];
#pragma omp parallel for
  for (i = 0; i < 61; i++) {
    dataa[2*i] = i;
    dataa[2*i+1] = -i;
  }
  printf("%d\n", dataa[1]);
  return 0;
}
