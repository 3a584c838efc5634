! APS-2: 8-line multi-array elementwise, nest 2, DOALL.
integer j
integer t
real Q(33, 3) seed 11
real W(33, 3) seed 12
real E(33, 3) seed 13
real T(33, 3) seed 14
real A(33, 3) seed 11
real B(33, 3) seed 12
real C(33, 3) seed 13
real D(33, 3) seed 14

do t = 1, 3
  do j = 1, 31
    Q(j, t) = A(j, t) * 0.5 + B(j, t)
    W(j, t) = B(j, t) - C(j, t) * 1.25
    E(j, t) = (C(j, t) + D(j, t)) * 0.75
    T(j, t) = D(j, t) * 2.0 + A(j, t)
    Q(j, t) = A(j, t) - B(j, t) * 1.5
    W(j, t) = (B(j, t) + C(j, t)) * 0.25
    E(j, t) = C(j, t) * 3.0 + D(j, t)
    T(j, t) = D(j, t) - A(j, t) * 0.125
  end
end
