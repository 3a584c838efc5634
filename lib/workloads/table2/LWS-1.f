! LWS-1: two-line product accumulation, nest 2, serial.
integer j
integer t
real s = 0.0
real w = 0.0
real A(345, 3) seed 11
real B(345, 3) seed 12

s = 0.0
do t = 1, 3
  do j = 1, 343
    w = A(j, t) * B(j, t)
    s = s + w
  end
end

output s
