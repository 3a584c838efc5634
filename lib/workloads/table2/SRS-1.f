! SRS-1: 3-line elementwise, nest 1, DOALL.
integer j
real P(289) seed 1
real Q(289) seed 2
real W(289) seed 3
real A(289) seed 1
real B(289) seed 2

do j = 1, 287
  P(j) = A(j) * 0.5 + B(j)
  Q(j) = B(j) - A(j) * 1.25
  W(j) = (A(j) + B(j)) * 0.75
end
