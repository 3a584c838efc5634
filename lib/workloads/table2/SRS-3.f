! SRS-3: single-line scale, nest 2, DOALL.
integer j
integer t
real A(289, 2) seed 11
real C(289, 2) seed 12

do t = 1, 2
  do j = 1, 287
    C(j, t) = A(j, t) * 1.5
  end
end
