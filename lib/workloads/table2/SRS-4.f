! SRS-4: 9-line body over a 3-deep nest, DOALL.
integer j
integer t
integer u
real A(89, 2, 2) seed 7
real B(89, 2, 2) seed 7
real P(89, 2, 2) seed 7
real Q(89, 2, 2) seed 7
real W(89, 2, 2) seed 7

do u = 1, 2
  do t = 1, 2
    do j = 1, 87
      P(j, t, u) = A(j, t, u) * 0.5 + B(j, t, u)
      Q(j, t, u) = A(j, t, u) - B(j, t, u)
      W(j, t, u) = (A(j, t, u) + B(j, t, u)) * 0.25
      A(j, t, u) = P(j, t, u) * 1.125
      B(j, t, u) = Q(j, t, u) + 0.375
    end
  end
end
