! MTS-1: running maximum, nest 2, serial, conds.
integer j
integer t
real mx = -1.0e30
real A(425, 2) seed 11

do t = 1, 2
  do j = 1, 423
    if (A(j, t) .gt. mx) then
      mx = A(j, t)
    end
  end
end

output mx
