! NAS-5: 71-line body: a large block of independent updates plus three
! sum accumulators, nest 2, serial.
integer j
integer t
real s1 = 0.0
real s2 = 0.0
real s3 = 0.0
real P(514, 2) seed 11
real Q(514, 2) seed 12
real W(514, 2) seed 13
real E(514, 2) seed 14
real T2(514, 2) seed 15
real Y(514, 2) seed 16
real U(514, 2) seed 17
real I2(514, 2) seed 18
real A(514, 2) seed 11
real B(514, 2) seed 12
real C(514, 2) seed 13
real D(514, 2) seed 14
real E2(514, 2) seed 15
real F(514, 2) seed 16
real G(514, 2) seed 17
real H(514, 2) seed 18

s1 = 0.0
s2 = 0.0
s3 = 1.0
do t = 1, 2
  do j = 1, 512
    P(j, t) = A(j, t) * 0.5 + B(j, t)
    Q(j, t) = B(j, t) - C(j, t) * 1.25
    W(j, t) = (C(j, t) + D(j, t)) * 0.75
    E(j, t) = D(j, t) * 2.0 + E2(j, t)
    T2(j, t) = E2(j, t) - F(j, t) * 1.5
    Y(j, t) = (F(j, t) + G(j, t)) * 0.25
    U(j, t) = G(j, t) * 3.0 + H(j, t)
    I2(j, t) = H(j, t) - A(j, t) * 0.125
    P(j, t) = (A(j, t) + B(j, t)) * 1.75
    Q(j, t) = B(j, t) * 0.625 + C(j, t)
    W(j, t) = C(j, t) - D(j, t) * 0.5
    E(j, t) = (D(j, t) + E2(j, t)) * 1.25
    T2(j, t) = E2(j, t) * 0.75 + F(j, t)
    Y(j, t) = F(j, t) - G(j, t) * 2.0
    U(j, t) = (G(j, t) + H(j, t)) * 1.5
    I2(j, t) = H(j, t) * 0.25 + A(j, t)
    P(j, t) = A(j, t) - B(j, t) * 3.0
    Q(j, t) = (B(j, t) + C(j, t)) * 0.125
    W(j, t) = C(j, t) * 1.75 + D(j, t)
    E(j, t) = D(j, t) - E2(j, t) * 0.625
    T2(j, t) = (E2(j, t) + F(j, t)) * 0.5
    Y(j, t) = F(j, t) * 1.25 + G(j, t)
    U(j, t) = G(j, t) - H(j, t) * 0.75
    I2(j, t) = (H(j, t) + A(j, t)) * 2.0
    P(j, t) = A(j, t) * 1.5 + B(j, t)
    Q(j, t) = B(j, t) - C(j, t) * 0.25
    W(j, t) = (C(j, t) + D(j, t)) * 3.0
    E(j, t) = D(j, t) * 0.125 + E2(j, t)
    T2(j, t) = E2(j, t) - F(j, t) * 1.75
    Y(j, t) = (F(j, t) + G(j, t)) * 0.625
    U(j, t) = G(j, t) * 0.5 + H(j, t)
    I2(j, t) = H(j, t) - A(j, t) * 1.25
    P(j, t) = (A(j, t) + B(j, t)) * 0.75
    Q(j, t) = B(j, t) * 2.0 + C(j, t)
    W(j, t) = C(j, t) - D(j, t) * 1.5
    E(j, t) = (D(j, t) + E2(j, t)) * 0.25
    T2(j, t) = E2(j, t) * 3.0 + F(j, t)
    Y(j, t) = F(j, t) - G(j, t) * 0.125
    U(j, t) = (G(j, t) + H(j, t)) * 1.75
    I2(j, t) = H(j, t) * 0.625 + A(j, t)
    P(j, t) = A(j, t) - B(j, t) * 0.5
    Q(j, t) = (B(j, t) + C(j, t)) * 1.25
    W(j, t) = C(j, t) * 0.75 + D(j, t)
    E(j, t) = D(j, t) - E2(j, t) * 2.0
    T2(j, t) = (E2(j, t) + F(j, t)) * 1.5
    Y(j, t) = F(j, t) * 0.25 + G(j, t)
    U(j, t) = G(j, t) - H(j, t) * 3.0
    I2(j, t) = (H(j, t) + A(j, t)) * 0.125
    P(j, t) = A(j, t) * 1.75 + B(j, t)
    Q(j, t) = B(j, t) - C(j, t) * 0.625
    W(j, t) = (C(j, t) + D(j, t)) * 0.5
    E(j, t) = D(j, t) * 1.25 + E2(j, t)
    T2(j, t) = E2(j, t) - F(j, t) * 0.75
    Y(j, t) = (F(j, t) + G(j, t)) * 2.0
    U(j, t) = G(j, t) * 1.5 + H(j, t)
    I2(j, t) = H(j, t) - A(j, t) * 0.25
    P(j, t) = (A(j, t) + B(j, t)) * 3.0
    Q(j, t) = B(j, t) * 0.125 + C(j, t)
    W(j, t) = C(j, t) - D(j, t) * 1.75
    E(j, t) = (D(j, t) + E2(j, t)) * 0.625
    T2(j, t) = E2(j, t) * 0.5 + F(j, t)
    Y(j, t) = F(j, t) - G(j, t) * 1.25
    U(j, t) = (G(j, t) + H(j, t)) * 0.75
    I2(j, t) = H(j, t) * 2.0 + A(j, t)
    P(j, t) = A(j, t) - B(j, t) * 1.5
    s1 = s1 + A(j, t)
    s2 = s2 + B(j, t) * C(j, t)
    s3 = s3 + D(j, t) * 0.001
  end
end

output s1, s2, s3
