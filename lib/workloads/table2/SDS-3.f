! SDS-3: dot-product accumulation, nest 2, serial.
integer j
integer t
real p = 0.0
real B(27, 2) seed 11
real C(27, 2) seed 12

p = 0.0
do t = 1, 2
  do j = 1, 25
    p = p + B(j, t) * C(j, t)
  end
end

output p
