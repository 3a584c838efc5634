! NAS-4: first-order linear recurrence, nest 1, serial.
integer j
real s = 0.5
real A(514) seed 1
real B(514) seed 2

do j = 1, 512
  s = s * 0.875 + A(j)
  B(j) = s
end

output s
