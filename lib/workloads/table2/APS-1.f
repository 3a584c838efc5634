! APS-1: 2-line elementwise update, nest 2, DOALL.
integer j
integer t
real A(66, 3) seed 11
real B(66, 3) seed 12
real C(66, 3) seed 13
real D(66, 3) seed 14

do t = 1, 3
  do j = 1, 64
    C(j, t) = A(j, t) * 1.5 + B(j, t)
    D(j, t) = A(j, t) - B(j, t)
  end
end
