! SRS-2: 5-line body with a distance-5 memory recurrence, nest 2,
! DOACROSS.
integer j
integer t
real A(297, 2) seed 6
real B(297, 2) seed 11
real C(297, 2) seed 12
real D(297, 2) seed 13

do t = 1, 2
  do j = 1, 287
    A(j + 5, t) = (A(j, t) + B(j, t)) * 0.5
    C(j, t) = B(j, t) * B(j, t)
    D(j, t) = C(j, t) + 2.5
  end
end
