! tomcatv-1: 21-line stencil block, nest 2, DOALL.
integer j
integer t
real X(259, 4) seed 11
real Y(259, 4) seed 12
real RX(259, 4) seed 13
real RY(259, 4) seed 14
real XX(259, 4) seed 15
real YY(259, 4) seed 16
real XY(259, 4) seed 17
real YX(259, 4) seed 18
real AA(259, 4) seed 19
real DD(259, 4) seed 20
real PXX(259, 4) seed 21
real PYY(259, 4) seed 22
real QXX(259, 4) seed 23
real QYY(259, 4) seed 24

do t = 2, 3
  do j = 2, 255
    XX(j, t) = (X(j + 1, t + 0) - X(j + -1, t + 0)) * 0.5
    YY(j, t) = (Y(j + 1, t + 0) - Y(j + -1, t + 0)) * 0.5
    XY(j, t) = (X(j + 0, t + 1) - X(j + 0, t + -1)) * 0.5
    YX(j, t) = (Y(j + 0, t + 1) - Y(j + 0, t + -1)) * 0.5
    AA(j, t) = XY(j + 0, t + 0) * XY(j + 0, t + 0) + YX(j + 0, t + 0) * YX(j + 0, t + 0)
    DD(j, t) = XX(j + 0, t + 0) * XX(j + 0, t + 0) + YY(j + 0, t + 0) * YY(j + 0, t + 0)
    PXX(j, t) = X(j + 1, t + 0) - X(j + 0, t + 0) * 2.0 + X(j + -1, t + 0)
    PYY(j, t) = Y(j + 1, t + 0) - Y(j + 0, t + 0) * 2.0 + Y(j + -1, t + 0)
    QXX(j, t) = X(j + 0, t + 1) - X(j + 0, t + 0) * 2.0 + X(j + 0, t + -1)
    QYY(j, t) = Y(j + 0, t + 1) - Y(j + 0, t + 0) * 2.0 + Y(j + 0, t + -1)
    RX(j, t) = AA(j + 0, t + 0) * PXX(j + 0, t + 0) + DD(j + 0, t + 0) * QXX(j + 0, t + 0) - XY(j + 0, t + 0) * PYY(j + 0, t + 0) * 0.5
    RY(j, t) = AA(j + 0, t + 0) * PYY(j + 0, t + 0) + DD(j + 0, t + 0) * QYY(j + 0, t + 0) - YX(j + 0, t + 0) * QXX(j + 0, t + 0) * 0.5
  end
end
