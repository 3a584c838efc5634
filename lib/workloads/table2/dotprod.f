! dotprod: dot-product accumulation, serial.
integer j
real s = 0.0
real A(514) seed 1
real B(514) seed 2

s = 0.0
do j = 1, 512
  s = s + A(j) * B(j)
end

output s
