"""The paper's invariances as norm-level checks (ROADMAP item 20).

S_f is invariant under affine post-composition, S_{af + b conj(f) + c} =
S_f for |a| != |b|, and precomposition with a disk automorphism phi gives
S_{f o phi} = (S_f o phi) phi'^2.  So ||S_f|| is the same for A o f o phi
as for f, and no norm of a catalog map with a known supremum, composed
or not, may read above that supremum: a norm is a lower bound.

Most constructed maps read above it today, by up to 7.3e-8, and L and
K2 do unconstructed; each such case is a strict xfail naming ROADMAP
item 2 (rim-honest norms) and the value it reads.  K2 o phi_{0.6+0.2i}
reads 9.494743694151522 and K2 o phi_{-0.95i} 9.315329967543072: they
pass only because they read low.  K2's supremum is a boundary limit,
approached near the rim point zeta = phi_a^{-1}(1) up to the rmax cap,
and the search does not reach that point (item 19): at rmax * zeta the
weighted modulus reads 9.50000000067573 and 9.499999998348924.

The values are those of numpy at AVX2 dispatch or above, where the CLI's
bytes are fixed too; at numpy's baseline dispatch K o phi_{0.6+0.2i}
reads 9.500000000000037 and S2 o phi_{0.3} 4.000000000000002, so the
module skips there.
"""

import pytest
from conftest import require_dispatch

from harmschwarz import (
    AffineMap,
    affine_compose,
    catalog_map,
    disk_automorphism,
    hyperbolic_sup,
    precompose,
)

SUPREMUM = {"K": 9.5, "L": 1.5, "S1": 2.5, "S2": 4.0, "K2": 9.5}
# f o phi_a for each a, by its label
AUTOMORPHISMS = {"0.3": 0.3, "0.6+0.2i": 0.6 + 0.2j, "0.9": 0.9, "-0.95i": -0.95j}
FORMS = ("as is", "affine", *(f"phi_{a}" for a in AUTOMORPHISMS))

# hyperbolic_sup(., "S").value of the cases that read above the supremum
ABOVE = {
    ("K", "affine"): 9.500000013784195,
    ("K", "phi_0.3"): 9.500000006208452,
    ("K", "phi_0.9"): 9.500000072782434,
    ("K", "phi_-0.95i"): 9.500000000000059,
    ("L", "as is"): 1.5000000000044573,
    ("L", "affine"): 1.5000000228345205,
    ("L", "phi_0.3"): 1.500000002350576,
    ("L", "phi_0.6+0.2i"): 1.5000000058960439,
    ("L", "phi_0.9"): 1.5000000224508248,
    ("L", "phi_-0.95i"): 1.5000000470446249,
    ("S1", "affine"): 2.5000000028999736,
    ("S1", "phi_0.3"): 2.5000000016338064,
    ("S1", "phi_0.6+0.2i"): 2.500000000000005,
    ("S1", "phi_0.9"): 2.5000000191532936,
    ("S1", "phi_-0.95i"): 2.5000000000000213,
    ("S2", "phi_0.6+0.2i"): 4.000000000000003,
    ("S2", "phi_0.9"): 4.000000000000005,
    ("S2", "phi_-0.95i"): 4.000000000000005,
    ("K2", "as is"): 9.500000000131093,
    ("K2", "affine"): 9.500000006465513,
    ("K2", "phi_0.3"): 9.500000006918508,
    ("K2", "phi_0.9"): 9.500000072644474,
}


def _constructed(name, form):
    f = catalog_map(name)
    if form == "affine":
        return affine_compose(AffineMap(0.5j, 0.45, 0), f)
    if form.startswith("phi_"):
        return precompose(f, disk_automorphism(AUTOMORPHISMS[form[4:]]))
    return f


def _case(name, form):
    value = ABOVE.get((name, form))
    marks = () if value is None else pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 2: reads {value!r}")
    return pytest.param(name, form, marks=marks, id=f"{name}-{form}")


@pytest.mark.parametrize("name, form", [_case(name, form) for name in SUPREMUM
                                        for form in FORMS])
def test_norm_is_at_most_the_supremum(name, form):
    require_dispatch("X86_V3")
    assert hyperbolic_sup(_constructed(name, form), "S").value <= SUPREMUM[name]
