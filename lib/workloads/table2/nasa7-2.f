! nasa7-2: 3-line body with a distance-1 memory recurrence over a 3-deep
! nest, DOACROSS.
integer j
integer t
integer u
real A(516, 2, 2) seed 14
real B(516, 2, 2) seed 15
real C(516, 2, 2) seed 16

do u = 1, 2
  do t = 1, 2
    do j = 1, 512
      A(j + 1, t, u) = A(j, t, u) * 0.5 + B(j, t, u)
      C(j, t, u) = B(j, t, u) * 0.75
    end
  end
end
