! WSS-1: single-line scaled copy, nest 2, DOALL.
integer j
integer t
real A(98, 2) seed 11
real B(98, 2) seed 12

do t = 1, 2
  do j = 1, 96
    B(j, t) = A(j, t) * 0.625 + 1.0
  end
end
