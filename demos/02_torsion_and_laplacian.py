"""
Torsion and the Laplacian of the co-closed structure
====================================================

A geometry point (a, b, q, eps) determines a 3-form phi and its dual
4-form psi.  psi is closed by construction; the failure of phi to be
closed is measured by a scalar torsion tau0 and a 3-form remainder tau3,
and the Laplacian of psi drives the flows.  Everything here is computed
twice, through the generic exterior algebra and through hand-derived
closed forms, and compared exactly.
"""

from fractions import Fraction

from coflow import (
    GeometryParams,
    build,
    curl_invariant,
    dphi_closed_form,
    exterior_derivative,
    form,
    identity_suite,
    laplacian_closed_form,
    laplacian_psi,
    tau0,
    torsion,
    type_project_4form,
    wedge,
)

p = GeometryParams(a=1, b=1, q=5, eps=+1)
ans = build(p)
print("phi =", ans.phi)
print("psi =", ans.psi)

# d(psi) = 0 is asserted inside build(); d(phi) is the interesting part
print("\nd(phi) =", exterior_derivative(ans.phi))
print("closed form agrees:", exterior_derivative(ans.phi) == dphi_closed_form(p))

# the scalar torsion at this point
t0 = tau0(ans)
print("tau0 =", t0)
assert t0 == Fraction(12, 5)

# round points kill the 3-form part entirely
td = torsion(build(GeometryParams(a=1, b=1, q=1, eps=-1)))
print("\nround point: tau0 =", td.tau0, " |tau3|^2 =", td.tau3_norm_sq)

# a generic point does not
td = torsion(build(GeometryParams(a=Fraction(2, 3), b=Fraction(1, 2), q=1, eps=-1)))
print("generic point: tau0 =", td.tau0, " |tau3|^2 =", td.tau3_norm_sq)

# the Laplacian of psi, algebraically and in closed form
lap = laplacian_psi(ans)
print("\nLaplacian(psi) =", lap)
assert lap == laplacian_closed_form(p)

# 4-forms split into three orthogonal types; the splitting is certified
# by exact wedge tests and reassembles the input.  The sample has a part
# along each of e1 ^ phi, e2 ^ phi and e3 ^ phi, so a split that loses one
# of the three 7-type projections fails its certificate here.
rho = (form([("vol", 3), ("e23^w1", Fraction(-1, 2)), ("e12^w3", 1)])
       + Fraction(1, 3) * wedge(form([("e1", 1)]), ans.phi)
       - 2 * wedge(form([("e2", 1)]), ans.phi)
       + Fraction(5, 4) * wedge(form([("e3", 1)]), ans.phi))
p1, p7, p27 = type_project_4form(rho, ans)
assert p1 + p7 + p27 == rho
print("\ntype split of a sample 4-form:")
print("  scalar part   ", p1)
print("  vector part   ", p7)
print("  traceless part", p27)

# the curl operator on invariant vector fields is diagonal at the round
# point with eigenvalues 6, 6, -2
round_ans = build(GeometryParams(a=1, b=1, q=1, eps=-1))
for key in ("e1", "e2", "e3"):
    print(f"curl({key}) =", curl_invariant(form([(key, 1)]), round_ans))

# the whole identity battery in one call
print("\nidentity suite:", all(ok for _, ok in identity_suite(p)))
