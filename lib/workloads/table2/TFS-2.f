! TFS-2: 7-line body with a distance-3 memory recurrence, nest 2,
! DOACROSS.
integer j
integer t
real A(126, 2) seed 8
real B(126, 2) seed 11
real C(126, 2) seed 12
real D(126, 2) seed 13
real E2(126, 2) seed 14

do t = 1, 2
  do j = 1, 120
    A(j + 3, t) = A(j, t) * 0.25 + B(j, t)
    C(j, t) = (B(j, t) + D(j, t)) * 0.5
    E2(j, t) = C(j, t) - D(j, t) * 0.125
    D(j, t) = B(j, t) / 2.0
  end
end
