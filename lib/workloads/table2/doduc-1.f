! doduc-1: 38-line serial body with conditionals, deep expression trees
! (tree-height-reduction fodder) and accumulators.
integer j
real s = 0.0
real x = 0.0
real y = 0.0
real zc = 0.0
real hi = 50.0
real P(15) seed 1
real Q(15) seed 2
real W(15) seed 3
real A(15) seed 1
real B(15) seed 2
real C(15) seed 3
real D(15) seed 4
real G(15) pos 12

s = 0.0
do j = 1, 13
  x = B(j) * (C(j) + D(j)) * A(j) * B(j) / G(j)
  if (x .gt. hi) then
    y = hi
  else
    y = x
  end
  zc = y * 0.5 + A(j)
  if (zc .lt. 0.0) then
    zc = 0.0
  end
  s = s + zc
  P(j) = A(j) * 0.5 + B(j)
  Q(j) = B(j) - C(j) * 1.25
  W(j) = (C(j) + D(j)) * 0.75
  P(j) = D(j) / 3.0 + 2.0
  Q(j) = A(j) * 1.5 + B(j)
  W(j) = B(j) - C(j) * 0.25
  P(j) = (C(j) + D(j)) * 3.0
  Q(j) = D(j) / 1.125 + 0.125
  W(j) = A(j) * 1.75 + B(j)
  P(j) = B(j) - C(j) * 0.625
  Q(j) = (C(j) + D(j)) * 0.5
  W(j) = D(j) / 2.25 + 1.25
  P(j) = A(j) * 0.75 + B(j)
  Q(j) = B(j) - C(j) * 2.0
  P(j) = zc * 2.0
  Q(j) = y - x
end

output s
