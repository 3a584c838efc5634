! matrix300-1: daxpy row update, nest 1, DOALL.
integer j
real a = 1.25
real B(302) seed 1
real C(302) seed 2

do j = 1, 300
  C(j) = C(j) + a * B(j)
end
