! nasa7-1: single-line scale over a 3-deep nest, DOALL.
integer j
integer t
integer u
real A(258, 2, 2) seed 13

do u = 1, 2
  do t = 1, 2
    do j = 1, 256
      A(j, t, u) = A(j, t, u) * 1.0625
    end
  end
end
