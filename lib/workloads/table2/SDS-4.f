! SDS-4: distance-4 memory recurrence, nest 2, DOACROSS.
integer j
integer t
real A(33, 2) seed 5
real B(33, 2) seed 11
real C(33, 2) seed 12

do t = 1, 2
  do j = 1, 25
    A(j + 4, t) = A(j, t) * 0.5 + B(j, t)
    C(j, t) = B(j, t) * 2.0
    B(j, t) = C(j, t) + 1.0
  end
end
