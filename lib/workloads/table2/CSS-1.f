! CSS-1: conditional damped accumulation, nest 1, serial, conds.
integer j
real s = 0.0
integer cnt
real tmp = 0.0
real A(69) seed 1
real B(69) seed 2

s = 0.0
cnt = 0
do j = 1, 67
  tmp = A(j) - 2.0
  if (tmp .lt. 0.0) cycle
  s = s * 0.9 + tmp
  cnt = cnt + 1
  B(j) = s
  A(j) = tmp * 1.125
end

output s, cnt
