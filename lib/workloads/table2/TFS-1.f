! TFS-1: 11-line elementwise block, nest 2, DOALL.
integer j
integer t
real P(91, 2) seed 11
real Q(91, 2) seed 12
real W(91, 2) seed 13
real E(91, 2) seed 14
real A(91, 2) seed 11
real B(91, 2) seed 12
real C(91, 2) seed 13

do t = 1, 2
  do j = 1, 89
    P(j, t) = A(j, t) * 0.5 + B(j, t)
    Q(j, t) = B(j, t) - C(j, t) * 1.25
    W(j, t) = (C(j, t) + A(j, t)) * 0.75
    E(j, t) = A(j, t) * 2.0 + B(j, t)
    P(j, t) = B(j, t) - C(j, t) * 1.5
    Q(j, t) = (C(j, t) + A(j, t)) * 0.25
    W(j, t) = A(j, t) * 3.0 + B(j, t)
    E(j, t) = B(j, t) - C(j, t) * 0.125
    P(j, t) = (C(j, t) + A(j, t)) * 1.75
    Q(j, t) = A(j, t) * 0.625 + B(j, t)
    W(j, t) = B(j, t) - C(j, t) * 0.5
  end
end
