! NAS-3: 6-line elementwise, nest 1, DOALL.
integer j
real P(514) seed 1
real Q(514) seed 2
real W(514) seed 3
real A(514) seed 1
real B(514) seed 2
real C(514) seed 3

do j = 1, 512
  P(j) = A(j) * 0.5 + B(j)
  Q(j) = B(j) - C(j) * 1.25
  W(j) = (C(j) + A(j)) * 0.75
  P(j) = A(j) / 3.0 + 2.0
  Q(j) = B(j) * 1.5 + C(j)
  W(j) = C(j) - A(j) * 0.25
end
