! LWS-2: single-line sum, nest 2, serial.
integer j
integer t
real s = 0.0
real A(514, 2) seed 11

s = 0.0
do t = 1, 2
  do j = 1, 512
    s = s + A(j, t)
  end
end

output s
