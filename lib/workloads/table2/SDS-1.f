! SDS-1: sum of squares, nest 2, serial.
integer j
integer t
real s = 0.0
real A(27, 2) seed 11

s = 0.0
do t = 1, 2
  do j = 1, 25
    s = s + A(j, t) * A(j, t)
  end
end

output s
