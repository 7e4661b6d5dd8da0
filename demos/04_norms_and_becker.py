"""Hyperbolic sup-norms over the disk and the Becker univalence test.

The Schwarzian norm is sup |S_f(z)| (1-|z|^2)^2 and the pre-Schwarzian
norm is sup |P_f(z)| (1-|z|^2).  The estimator sweeps a polar grid with
hyperbolically clustered radii, refines the best cells by a batched
local zoom in the same polar coordinates, and reports a lower bound
together with its argmax.  Worked values:

    ||S_L|| = 3/2 (constant modulus), ||S_S1|| = 5/2, ||S_S2|| = 4,
    ||S_K|| = 19/2 at 0, ||S_K2|| -> 19/2 only as |z| -> 1,
    ||P_L|| -> 5 at the rim, ||Sk|| = 6, ||Ss|| = 2.
"""

from harmschwarz import (
    ExprFunction,
    HarmonicMap,
    SearchConfig,
    becker_check,
    catalog,
    catalog_map,
    finite_norm_compare,
    hyperbolic_sup,
)

print(f"{'map':>4} {'op':>2} {'estimate':>18} {'argmax':>24} boundary")
for name, op in [("L", "S"), ("S1", "S"), ("S2", "S"), ("K", "S"),
                 ("K2", "S"), ("L", "P"), ("k", "S"), ("s", "S")]:
    rep = hyperbolic_sup(catalog_map(name), op)
    print(f"{name:>4} {op:>2} {rep.value:>18.12f} "
          f"{rep.argmax.real:>11.6f}{rep.argmax.imag:>+12.6f}j "
          f"{rep.boundary_flag}")

# K2's supremum is approached only at the rim: the report flags it and
# returns the near-boundary sample instead of an interior maximum

# -- finiteness travels between f and its analytic part ------------------------

cfg = SearchConfig(rays=64, radial_samples=32)
s_f, s_h = finite_norm_compare(catalog("K"), cfg)
print("\n||S_K|| and ||S_h|| on the same grid:",
      round(s_f.value, 6), round(s_h.value, 6))

# -- Becker-type criterion ------------------------------------------------------

# (|z P_f| + |z w'|/(1-|w|^2)) (1-|z|^2) <= 1 on the disk implies
# univalence; the constant 1 is sharp
affine = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.5*z"))
rep = becker_check(affine)
print("\naffine map:     holds =", rep.holds, " worst margin =", rep.worst_margin)

rep = becker_check(catalog_map("k"))
print("analytic Koebe: holds =", rep.holds,
      " worst margin =", round(rep.worst_margin, 6),
      " witness =", rep.witness)
# the Koebe map is univalent, so the criterion is sufficient, not
# necessary; it fails loudly where 2r(2+r) > 1 on the real axis
