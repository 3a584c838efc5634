! MTS-2: running minimum over a 3-deep nest, serial, conds.
integer j
integer t
integer u
real mn = 1.0e30
real A(26, 2, 2) seed 3

do u = 1, 2
  do t = 1, 2
    do j = 1, 24
      if (A(j, t, u) .lt. mn) then
        mn = A(j, t, u)
      end
    end
  end
end

output mn
