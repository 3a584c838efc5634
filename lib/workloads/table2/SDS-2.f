! SDS-2: 3-deep nest sum, serial.
integer j
integer t
integer u
real s = 0.0
real A(34, 2, 2) seed 4

s = 0.0
do u = 1, 2
  do t = 1, 2
    do j = 1, 32
      s = s + A(j, t, u)
    end
  end
end

output s
