"""Maps sharing a pre-Schwarzian: the Jacobian-homothety group.

Two sense-preserving maps have equal P_f exactly when their Jacobians
are homothetic (J_F = c J_f).  The transformations realizing this form a
group generated by

    Rp(lambda): f -> lambda h + conj(lambda g)     (lambda != 0)
    Rq(mu):     f -> h + conj(mu g)                (|mu| = 1)
    I(a):       f -> f + conj(a f)                 (a in the disk)

and every partner of f arises as omega_F = mu (phi_a o omega),
H' = lambda h'/sqrt(phi_a' o omega) with phi_a the disk automorphism.
A partner map is expression text like any other map: its JSON reloads
to a map with the same P_f.
"""

import cmath
import json

import numpy as np

from harmschwarz import (
    catalog,
    group_apply,
    jacobian,
    map_from_json,
    map_to_json,
    partner_map,
    pre_schwarzian,
)

S2 = catalog("S2")
pts = [0.1 + 0.2j, -0.25 + 0.3j, 0.4 - 0.1j]

# -- the generators -------------------------------------------------------------

F = group_apply(S2, "I", 0.3)
print("I(0.3) moves the dilatation: omega_F(0) =", complex(F.omega.value(0.0)))
F = group_apply(S2, "Rq", cmath.exp(0.9j))
print("Rq rotates it:               omega_F(0.2)/omega(0.2) =",
      complex(F.omega.value(0.2) / S2.omega.value(0.2)))

# -- partner maps ----------------------------------------------------------------

rng = np.random.default_rng(5)
for trial in range(3):
    a = 0.6 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
    mu = cmath.exp(2j * cmath.pi * rng.random())
    lam = 0.5 + rng.random()
    F = partner_map(S2, a, mu, lam)
    perr = max(abs(pre_schwarzian(F, z) - pre_schwarzian(S2, z)) for z in pts)
    ratios = [jacobian(F, z) / jacobian(S2, z) for z in pts]
    print(f"partner a={a:.3f} mu={mu:.3f} lam={lam:.3f}: "
          f"max |P_F - P_f| = {perr:.2e}, "
          f"J_F/J_f = {ratios[0]:.6f} (constant to "
          f"{max(ratios) - min(ratios):.2e})")

# -- a partner map as JSON -------------------------------------------------------

F = partner_map(S2, 0.5, 1.0, 2.0)
spec = map_to_json(F)
print("partner(S2, a=0.5, mu=1, lam=2) as JSON:", json.dumps(spec))
G = map_from_json(spec)
same = all(pre_schwarzian(G, z) == pre_schwarzian(F, z) for z in pts)
print("its reload has the same P_f at", pts, ":", same)
assert same
