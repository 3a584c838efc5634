! The one-sweep cleanup and the reference cleanup round reach different
! fixpoints. mod(int(A(j)), 1) folds to 0, so the first load of A(j) and
! its address (j-1)*4 die. The reference round's DCE removes them before
! its CSE, one round later, could match the second (j-1)*4 (for the
! second A(j)) against the first; the one-sweep cleanup matches them in
! the same sweep and keeps the first. Both compute the same values, but
! the instruction sequences differ.
integer j
integer t = 0
real s = 0.0
real A(8) seed 1

do j = 1, 8
  t = t + mod(int(A(j)), 1)
  s = s + A(j) * 0.5
end

output s, t
