! NAS-2: 5-line neighbourhood smoother, nest 1, DOALL.
integer j
real A(516) seed 1
real B(516) seed 2
real C(516) seed 3
real D(516) seed 4

do j = 2, 512
  B(j) = (A(j - 1) + A(j) + A(j + 1)) * 0.3333
  C(j) = A(j) * A(j)
  D(j) = (A(j + 1) - A(j - 1)) * 0.5
end
