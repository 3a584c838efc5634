! add: C = A + B elementwise, DOALL.
integer j
real A(514) seed 1
real B(514) seed 2
real C(514) seed 3

do j = 1, 512
  C(j) = A(j) + B(j)
end
