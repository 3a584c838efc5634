! maxval: running maximum, serial, conds.
integer j
real mx = -1.0e30
real A(514) seed 1

do j = 1, 512
  if (A(j) .gt. mx) then
    mx = A(j)
  end
end

output mx
