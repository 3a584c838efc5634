! Figure 7's expression over arrays: A = B*(C+D)*E*F/G, one multiply
! chain that ends in a divide. The operands are loaded first, so every
! leaf is ready before the chain starts; tree height reduction (Lev3
! and Lev4) then divides G into one numerator first, and the long
! divide overlaps the multiply tree.
integer j
real vb
real vc
real vd
real ve
real vf
real vg
real B(100) seed 1
real C(100) seed 2
real D(100) seed 3
real E(100) seed 4
real F(100) seed 5
real G(100) pos 6
real A(100) zero

do j = 1, 100
  vb = B(j)
  vc = C(j)
  vd = D(j)
  ve = E(j)
  vf = F(j)
  vg = G(j)
  A(j) = vb * (vc + vd) * ve * vf / vg
end
