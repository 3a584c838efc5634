! WSS-2: 4-line body with a distance-6 memory recurrence, nest 2,
! DOACROSS.
integer j
integer t
real A(51, 2) seed 10
real B(51, 2) seed 11
real C(51, 2) seed 12

do t = 1, 2
  do j = 1, 39
    A(j + 6, t) = A(j, t) + B(j, t) * 0.75
    C(j, t) = B(j, t) * B(j, t)
  end
end
