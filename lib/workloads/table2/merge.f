! merge: select A or B by an integer mask, DOALL, conds.
integer j
integer M(514) mask 21
real A(514) seed 1
real B(514) seed 2
real C(514) seed 3

do j = 1, 512
  if (M(j) .gt. 0) then
    C(j) = A(j)
  else
    C(j) = B(j)
  end
end
