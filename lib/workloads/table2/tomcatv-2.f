! tomcatv-2: residual reduction with a running maximum, nest 2, serial,
! conds.
integer j
integer t
real rmax = 0.0
real s = 0.0
real rr = 0.0
real RX(257, 2) seed 11
real RY(257, 2) seed 12

s = 0.0
do t = 1, 2
  do j = 1, 255
    rr = RX(j, t) * RX(j, t) + RY(j, t) * RY(j, t)
    if (rr .gt. rmax) then
      rmax = rr
    end
    s = s + rr
  end
end

output rmax, s
