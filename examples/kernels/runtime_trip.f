! a trip count known only at run time: n is loaded from memory, so
! unrolling computes the preconditioning count (trip mod N) with a
! divide and a remainder and guards both loops against zero trips
integer j
integer n
integer M(4) linear 37 0
real s = 0.0
real A(64) seed 3
real B(64) seed 5

n = M(1)
do j = 1, n
  B(j) = A(j) * 2.0 + B(j)
  s = s + A(j)
end

output s
