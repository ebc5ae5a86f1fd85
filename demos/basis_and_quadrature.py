"""Tour of the two building blocks: the spline space and the quadrature.

Run from the repository root after installing the package:

    python3 demos/basis_and_quadrature.py
"""
import numpy as np

from igaspectra import (KnotVector, boundary_derivatives, eval_basis,
                        gauss_legendre, gauss_lobatto, optimal_blending)

# ---------------------------------------------------------------- spline space
p, n = 3, 8
space = KnotVector(p, n)
print(f"degree-{p} space on {n} elements: {space.n_dof} interior functions "
      f"(continuity C^{p - 1}, h = {space.h})")

x = 0.3
pairs = eval_basis(space, x)
total = sum(v for _, v in pairs)
print(f"basis at x = {x}: functions {[i for i, _ in pairs]} carry the support")
print(f"  values {[round(v, 6) for _, v in pairs]}  (sum = {total:.15f})")

print("endpoint derivatives of the interior functions at x = 0:")
for r in range(3):
    at0, _ = boundary_derivatives(space, r)
    print(f"  r={r}: {[round(v, 3) for v in at0[:4]]} ...")
print("only the first p-1 functions are nonzero there; the penalty terms")
print("touch exactly that corner block of K and M.\n")

# ---------------------------------------------------------------- quadratures
m = 4
gn, gw = gauss_legendre(m)
ln, lw = gauss_lobatto(m)
print(f"{m}-point rules on [-1, 1]:")
print(f"  Gauss-Legendre nodes   {np.round(gn, 10).tolist()}")
print(f"  Gauss-Lobatto  nodes   {np.round(ln, 10).tolist()}")


def defect(nodes, weights, k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return abs(float(weights @ nodes**k) - exact)


eta = float(optimal_blending(3))
bn = np.concatenate([gn, ln])
bw = np.concatenate([eta * gw, (1.0 - eta) * lw])
print("\nmonomial integration defect by degree k (m = 4):")
print("  k      Gauss        Lobatto      blended(p=3)")
for k in range(4, 9):
    print(f"  {k}   {defect(gn, gw, k):10.2e} "
          f"{defect(ln, lw, k):12.2e} "
          f"{defect(bn, bw, k):12.2e}")
print("\nGauss is exact through 2m-1 = 7, Lobatto and the blend through")
print("2m-3 = 5.  The blend gives up two degrees of exactness on purpose:")
print("its weight eta is chosen per degree so the two phase errors cancel.")
print("\nblending weights eta by spline degree:")
for q in range(1, 8):
    print(f"  p={q}: eta = {float(optimal_blending(q))}")
