! sum: single-line sum, serial.
integer j
real s = 0.0
real A(514) seed 1

s = 0.0
do j = 1, 512
  s = s + A(j)
end

output s
