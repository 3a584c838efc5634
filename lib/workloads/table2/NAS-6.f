! NAS-6: 24-line body with a distance-4 memory recurrence, nest 2,
! DOACROSS.
integer j
integer t
real A(520, 2) seed 9
real P(520, 2) seed 11
real Q(520, 2) seed 12
real W(520, 2) seed 13
real B(520, 2) seed 11
real C(520, 2) seed 12
real D(520, 2) seed 13

do t = 1, 2
  do j = 1, 512
    A(j + 4, t) = A(j, t) * 0.5 + B(j, t)
    P(j, t) = B(j, t) * 0.5 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 1.25
    W(j, t) = (D(j, t) + B(j, t)) * 0.75
    P(j, t) = B(j, t) * 2.0 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 1.5
    W(j, t) = (D(j, t) + B(j, t)) * 0.25
    P(j, t) = B(j, t) * 3.0 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 0.125
    W(j, t) = (D(j, t) + B(j, t)) * 1.75
    P(j, t) = B(j, t) * 0.625 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 0.5
    W(j, t) = (D(j, t) + B(j, t)) * 1.25
    P(j, t) = B(j, t) * 0.75 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 2.0
    W(j, t) = (D(j, t) + B(j, t)) * 1.5
    P(j, t) = B(j, t) * 0.25 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 3.0
    W(j, t) = (D(j, t) + B(j, t)) * 0.125
    P(j, t) = B(j, t) * 1.75 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 0.625
    W(j, t) = (D(j, t) + B(j, t)) * 0.5
    P(j, t) = B(j, t) * 1.25 + C(j, t)
    Q(j, t) = C(j, t) - D(j, t) * 0.75
  end
end
