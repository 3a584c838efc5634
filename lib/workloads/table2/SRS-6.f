! SRS-6: single-line decrementing accumulator, nest 2, serial.
integer j
integer t
real s = 1000.0
real A(289, 2) seed 11

do t = 1, 2
  do j = 1, 287
    s = s - A(j, t)
  end
end

output s
