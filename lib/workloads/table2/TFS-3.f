! TFS-3: 2-line body over a 3-deep nest, DOALL.
integer j
integer t
integer u
real A(51, 2, 2) seed 1
real B(51, 2, 2) seed 2
real P(51, 2, 2) seed 3
real Q(51, 2, 2) seed 4

do u = 1, 2
  do t = 1, 2
    do j = 1, 49
      P(j, t, u) = A(j, t, u) * B(j, t, u)
      Q(j, t, u) = A(j, t, u) + B(j, t, u)
    end
  end
end
