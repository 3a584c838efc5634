! NAS-1: 22-line elementwise block, nest 1, DOALL.
integer j
real P(514) seed 1
real Q(514) seed 2
real W(514) seed 3
real E(514) seed 4
real S1(514) seed 5
real S2(514) seed 6
real A(514) seed 1
real B(514) seed 2
real C(514) seed 3
real D(514) seed 4
real E2(514) seed 5
real F(514) seed 6

do j = 1, 512
  P(j) = A(j) * 0.5 + B(j)
  Q(j) = B(j) - C(j) * 1.25
  W(j) = (C(j) + D(j)) * 0.75
  E(j) = D(j) / 3.0 + 2.0
  S1(j) = E2(j) * 1.5 + F(j)
  S2(j) = F(j) - A(j) * 0.25
  P(j) = (A(j) + B(j)) * 3.0
  Q(j) = B(j) / 1.125 + 0.125
  W(j) = C(j) * 1.75 + D(j)
  E(j) = D(j) - E2(j) * 0.625
  S1(j) = (E2(j) + F(j)) * 0.5
  S2(j) = F(j) / 2.25 + 1.25
  P(j) = A(j) * 0.75 + B(j)
  Q(j) = B(j) - C(j) * 2.0
  W(j) = (C(j) + D(j)) * 1.5
  E(j) = D(j) / 1.25 + 0.25
  S1(j) = E2(j) * 3.0 + F(j)
  S2(j) = F(j) - A(j) * 0.125
  P(j) = (A(j) + B(j)) * 1.75
  Q(j) = B(j) / 1.625 + 0.625
  W(j) = C(j) * 0.5 + D(j)
  E(j) = D(j) - E2(j) * 1.25
end
