! APS-3: saxpy-like, nest 1, DOALL.
integer j
real a = 1.75
real X(514) seed 1
real Y(514) seed 2
real Z(514) seed 3

do j = 1, 512
  Y(j) = Y(j) + a * X(j)
  Z(j) = X(j) * 0.5
end
