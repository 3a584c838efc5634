! SRS-5: 21-line elementwise block, nest 2, DOALL.
integer j
integer t
real P(289, 2) seed 11
real Q(289, 2) seed 12
real W(289, 2) seed 13
real E(289, 2) seed 14
real Y(289, 2) seed 15
real A(289, 2) seed 11
real B(289, 2) seed 12
real C(289, 2) seed 13
real D(289, 2) seed 14

do t = 1, 2
  do j = 1, 287
    P(j, t) = A(j, t) * 0.5 + B(j, t)
    Q(j, t) = B(j, t) - C(j, t) * 1.25
    W(j, t) = (C(j, t) + D(j, t)) * 0.75
    E(j, t) = D(j, t) * 2.0 + A(j, t)
    Y(j, t) = A(j, t) - B(j, t) * 1.5
    P(j, t) = (B(j, t) + C(j, t)) * 0.25
    Q(j, t) = C(j, t) * 3.0 + D(j, t)
    W(j, t) = D(j, t) - A(j, t) * 0.125
    E(j, t) = (A(j, t) + B(j, t)) * 1.75
    Y(j, t) = B(j, t) * 0.625 + C(j, t)
    P(j, t) = C(j, t) - D(j, t) * 0.5
    Q(j, t) = (D(j, t) + A(j, t)) * 1.25
    W(j, t) = A(j, t) * 0.75 + B(j, t)
    E(j, t) = B(j, t) - C(j, t) * 2.0
    Y(j, t) = (C(j, t) + D(j, t)) * 1.5
    P(j, t) = D(j, t) * 0.25 + A(j, t)
    Q(j, t) = A(j, t) - B(j, t) * 3.0
    W(j, t) = (B(j, t) + C(j, t)) * 0.125
    E(j, t) = C(j, t) * 1.75 + D(j, t)
    Y(j, t) = D(j, t) - A(j, t) * 0.625
    P(j, t) = (A(j, t) + B(j, t)) * 0.5
  end
end
