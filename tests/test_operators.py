"""Operator values against closed forms, plus the cross-operator identities."""

import cmath
import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from conftest import require_dispatch

from harmschwarz import (
    AffineMap,
    ExprFunction,
    HarmonicMap,
    HarmonicMobius,
    MobiusMap,
    affine_compose,
    best_harmonic_mobius,
    bivariate_extract,
    catalog,
    catalog_map,
    cdo_schwarzian,
    classical_pre_schwarzian,
    classical_schwarzian,
    conjugate,
    dbar_pre_schwarzian,
    disk_automorphism,
    jacobian,
    lemma1_schwarzian,
    map_from_json,
    mixed_laplacian_schwarzian,
    precompose,
    pre_schwarzian,
    schwarzian,
    schwarzian_via_jacobian_fd,
    shear,
    tamanoi_schwarzian,
)
from harmschwarz import cli
from harmschwarz.errors import (
    CriticalPoint,
    DilatationZeroNeedsQ,
    DomainError,
    NonFinite,
    QMismatch,
    StencilOutsideDomain,
    ToolkitError,
)
from harmschwarz.expr import trapped
from harmschwarz.maps import CATALOG_NAMES
from harmschwarz.operators import _mobius_deviation
from conftest import disk_points


# -- closed forms of the worked examples (independent oracles) ---------------

def S_L(z):
    zb = np.conjugate(z)
    return -1.5 * (1.0 / (1.0 - z) - zb / (1.0 - abs(z) ** 2)) ** 2


def P_L(z):
    zb = np.conjugate(z)
    return 3.0 / (1.0 - z) - zb / (1.0 - abs(z) ** 2)


def S_K(z):
    zb = np.conjugate(z)
    m2 = abs(z) ** 2
    num = (19 + 10 * z + 3 * z ** 2 - 44 * m2 - 10 * z * m2 + 19 * m2 ** 2
           - 10 * zb + 10 * zb * m2 + 3 * zb ** 2)
    return -num / (2.0 * (1.0 - z ** 2) ** 2 * (1.0 - m2) ** 2)


def S_S1(z):
    zb = np.conjugate(z)
    m2 = abs(z) ** 2
    return ((2.0 * (1.0 - m2) * (1.0 + zb) + 3.0 * (1.0 - zb ** 2) * (1.0 + z))
            / (2.0 * (1.0 - z ** 2) * (1.0 + z) * (1.0 - m2) ** 2))


def S_S2(z):
    zb = np.conjugate(z)
    m4 = abs(z) ** 4
    return 2.0 * (2.0 + m4 - zb ** 2 - 2.0 * m4 * zb ** 2) / \
        ((1.0 - z ** 2) * (1.0 - m4) ** 2)


def S_K2(z):
    zb = np.conjugate(z)
    m2 = abs(z) ** 2
    m4 = m2 ** 2
    return -2.0 / ((1.0 - z) ** 2 * (1.0 - m4) ** 2) * \
        (2.0 + m4 + zb ** 2 - 6.0 * m2 * zb + 2.0 * zb ** 2 * m4)


def P_k(z):
    return 2.0 * (2.0 + z) / (1.0 - z ** 2)


class TestClassical:
    def test_koebe_pre_schwarzian(self, rng):
        k = catalog("k")
        assert abs(classical_pre_schwarzian(k, 0.0) - 4.0) < 1e-14
        for z in disk_points(rng, 8, rmax=0.7):
            z = complex(z)
            assert abs(classical_pre_schwarzian(k, z) - P_k(z)) < 1e-11

    def test_identity_and_odd_map(self):
        assert abs(classical_pre_schwarzian(ExprFunction("z"), 0.0)) < 1e-15
        assert abs(classical_pre_schwarzian(catalog("s"), 0.0)) < 1e-15

    def test_koebe_and_strip_schwarzians(self, rng):
        k, s = catalog("k"), catalog("s")
        assert abs(classical_schwarzian(k, 0.0) + 6.0) < 1e-14
        assert abs(classical_schwarzian(s, 0.0) - 2.0) < 1e-14
        for z in disk_points(rng, 6, rmax=0.7):
            z = complex(z)
            assert abs(classical_schwarzian(k, z) + 6.0 / (1 - z ** 2) ** 2) < 1e-10
            assert abs(classical_schwarzian(s, z) - 2.0 / (1 - z ** 2) ** 2) < 1e-10

    def test_mobius_kernel(self, rng):
        T = MobiusMap(1.3, 0.2 - 0.1j, 0.4j, 0.9).as_function()
        for z in disk_points(rng, 8, rmax=0.8):
            assert abs(classical_schwarzian(T, complex(z))) < 1e-10

    def test_critical_point(self):
        with pytest.raises(CriticalPoint):
            classical_pre_schwarzian(ExprFunction("z^2"), 0.0)
        # the error names the first point where phi' vanishes
        for op in (classical_pre_schwarzian, classical_schwarzian):
            for z in (0.0, np.array([0.5, 0.0])):
                with pytest.raises(CriticalPoint) as err:
                    op(ExprFunction("z^2"), z)
                assert type(err.value.at) is complex and err.value.at == 0j


class TestPreSchwarzian:
    def test_half_plane_closed_form(self, rng):
        L = catalog("L")
        assert abs(pre_schwarzian(L, 0.0) - 3.0) < 1e-14
        for z in disk_points(rng, 10, rmax=0.8):
            z = complex(z)
            assert abs(pre_schwarzian(L, z) - P_L(z)) < 1e-10

    def test_affine_kernel(self, rng):
        f = HarmonicMap.from_parts(ExprFunction("(2-1*i)*z"),
                                   ExprFunction("(0.5+0.25*i)*z"))
        for z in disk_points(rng, 6, rmax=0.9):
            assert abs(pre_schwarzian(f, complex(z))) < 1e-14

    def test_analytic_reduction(self, rng):
        phi = catalog("k")
        f = catalog_map("k")
        for z in disk_points(rng, 6, rmax=0.7):
            z = complex(z)
            assert abs(pre_schwarzian(f, z)
                       - classical_pre_schwarzian(phi, z)) < 1e-13

    def test_not_sense_preserving(self):
        f = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("2*z"))
        with pytest.raises(DomainError):
            pre_schwarzian(f, 0.1)


class TestSchwarzian:
    def test_anchor_values(self):
        assert abs(schwarzian(catalog("L"), 0.0) + 1.5) < 1e-14
        assert abs(schwarzian(catalog("S2"), 0.0) - 4.0) < 1e-14
        assert abs(schwarzian(catalog("K"), 0.0) + 9.5) < 1e-14

    @pytest.mark.parametrize("name,oracle", [
        ("L", S_L), ("K", S_K), ("S1", S_S1), ("S2", S_S2), ("K2", S_K2),
    ])
    def test_closed_forms(self, name, oracle, rng):
        f = catalog(name)
        for z in disk_points(rng, 10, rmax=0.6):
            z = complex(z)
            s = schwarzian(f, z)
            assert abs(s - oracle(z)) <= 1e-10 * max(1.0, abs(s))

    def test_harmonic_mobius_kernel(self, rng):
        T = MobiusMap(1.0 + 0.5j, -0.2, 0.3 - 0.1j, 1.1)
        f = HarmonicMobius(T, 0.45 - 0.2j).as_harmonic_map()
        for z in disk_points(rng, 10, rmax=0.6):
            assert abs(schwarzian(f, complex(z))) < 1e-10

    def test_a_point_alone_and_in_a_batch_agree_to_rounding(self):
        # one point rounds as numpy's scalars, a batch as its array loops,
        # which round a complex product otherwise: at the argmax of
        # norm --map L --op S the two differ by 1.02e-14 relative, and the
        # weighted modulus reads 1.5000000000044573 alone and
        # 1.5000000000044713 in a batch
        z = 0.9997915370086967 - 9.807798501271583e-05j
        alone = schwarzian(catalog("L"), z)
        batch = schwarzian(catalog("L"), np.array([z, 0.1]))[0]
        assert abs(batch - alone) <= 2e-14 * abs(alone)

    def test_constant_dilatation_reduces_to_analytic_part(self, rng):
        h = ExprFunction("z/(1-z)^2")
        alpha = 0.37 - 0.21j
        f = HarmonicMap.from_parts(
            h, ExprFunction(f"({alpha.real!r}+{alpha.imag!r}*i)*(z/(1-z)^2)"))
        for z in disk_points(rng, 8, rmax=0.6):
            z = complex(z)
            assert abs(schwarzian(f, z) - classical_schwarzian(h, z)) < 1e-12


class TestCdoSchwarzian:
    def test_analytic_reduction(self, rng):
        f = catalog_map("k")
        phi = catalog("k")
        for z in disk_points(rng, 5, rmax=0.6):
            z = complex(z)
            assert abs(cdo_schwarzian(f, z)
                       - classical_schwarzian(phi, z)) < 1e-12

    def test_q_zero_kills_corrections(self):
        # q(0) = 0: both correction terms vanish, leaving Sh
        S2 = catalog("S2")
        got = cdo_schwarzian(S2, 0.0, q=ExprFunction("z"))
        sh = classical_schwarzian(S2.h, 0.0)
        assert abs(got - sh) < 1e-13

    def test_differs_from_harmonic_schwarzian(self):
        # the two Schwarzians disagree wherever omega != 0
        S2 = catalog("S2")
        assert abs(cdo_schwarzian(S2, 0.5) - schwarzian(S2, 0.5)) > 1e-6
        K2 = catalog("K2")
        a = cdo_schwarzian(K2, 0.5, q=ExprFunction("z"))
        b = schwarzian(K2, 0.5)
        assert abs(a - b) > 1e-6

    def test_needs_q_at_dilatation_zero(self):
        with pytest.raises(DilatationZeroNeedsQ):
            cdo_schwarzian(catalog("S2"), 0.0)

    def test_q_mismatch(self):
        with pytest.raises(QMismatch):
            cdo_schwarzian(catalog("S2"), 0.3, q=ExprFunction("z^2"))

    def test_even_dilatation_square_root_path(self):
        # omega = z^2 away from 0: automatic principal root agrees with q = z
        K2 = catalog("K2")
        z = 0.4 + 0.1j
        assert abs(cdo_schwarzian(K2, z)
                   - cdo_schwarzian(K2, z, q=ExprFunction("z"))) < 1e-12


class TestJacobian:
    def test_normalizations(self):
        assert abs(jacobian(catalog("K"), 0.0) - 1.0) < 1e-15
        assert abs(jacobian(catalog("L"), 0.0) - 1.0) < 1e-15

    def test_conjugate_negates(self, rng):
        f = catalog("S1")
        g = conjugate(f)
        for z in disk_points(rng, 6, rmax=0.7):
            z = complex(z)
            assert abs(jacobian(g, z) + jacobian(f, z)) < 1e-13

    def test_matches_parts_definition(self, rng):
        f = catalog("K")
        for z in disk_points(rng, 6, rmax=0.6):
            z = complex(z)
            direct = abs(f.hp.value(z)) ** 2 - abs(f.gp.value(z)) ** 2
            assert abs(jacobian(f, z) - direct) <= 1e-12 * max(1.0, abs(direct))


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def wirtinger_dbar_fd(fn, z, step=1e-4):
    off = np.arange(-2, 3)
    fx = fn(z + step * off)
    fy = fn(z + 1j * step * off)
    return 0.5 * ((_D1 @ fx) + 1j * (_D1 @ fy)) / step


def mixed_zzbar_fd(fn, z, step=1e-3):
    off = np.arange(-2, 3)
    fx = fn(z + step * off)
    fy = fn(z + 1j * step * off)
    return 0.25 * ((_D2 @ fx) + (_D2 @ fy)) / step ** 2


class TestDbarPreSchwarzian:
    def test_constant_dilatation(self):
        f = HarmonicMap.from_parts(ExprFunction("z/(1-z)"),
                                   ExprFunction("0.5*(z/(1-z))"))
        assert abs(dbar_pre_schwarzian(f, 0.2 + 0.1j)) < 1e-15

    def test_unit_derivative_dilatation(self):
        assert abs(dbar_pre_schwarzian(catalog("K"), 0.0) - 1.0) < 1e-14

    def test_magnitude_matches_wirtinger_fd(self):
        # P_f gains anti-analytic content at rate |w'|^2/(1-|w|^2)^2; the
        # operator reports the magnitude of d P/d conj(z)
        K = catalog("K")
        for z in (0.3 + 0.0j, 0.1 - 0.25j):
            fd = wirtinger_dbar_fd(lambda w: pre_schwarzian(K, w), z)
            assert abs(abs(fd) - dbar_pre_schwarzian(K, z)) < 1e-5

    def test_nonnegative_and_zero_iff_omega_prime_zero(self, rng):
        for name in ("K", "L", "S1", "S2", "K2"):
            f = catalog(name)
            for z in disk_points(rng, 5, rmax=0.7):
                z = complex(z)
                val = dbar_pre_schwarzian(f, z)
                assert val >= 0.0
                wp = f.omega.jet(z, 1).coeffs[1]
                assert (val == 0.0) == (wp == 0.0)


class TestMixedLaplacian:
    def test_constant_dilatation_analytic(self):
        f = HarmonicMap.from_parts(ExprFunction("z/(1-z)^2"),
                                   ExprFunction("0.3*(z/(1-z)^2)"))
        assert abs(mixed_laplacian_schwarzian(f, 0.25 - 0.2j)) < 1e-14

    def test_koebe_at_origin(self):
        K = catalog("K")
        assert abs(mixed_laplacian_schwarzian(K, 0.0) - 3.0) < 1e-13
        fd = mixed_zzbar_fd(lambda w: schwarzian(K, w), 0.0)
        assert abs(mixed_laplacian_schwarzian(K, 0.0) - fd) < 1e-5

    def test_fd_cross_check_generic_point(self):
        K = catalog("K")
        z = 0.3 + 0.2j
        fd = mixed_zzbar_fd(lambda w: schwarzian(K, w), z)
        assert abs(mixed_laplacian_schwarzian(K, z) - fd) < 1e-5

    def test_strip_at_origin(self):
        assert abs(mixed_laplacian_schwarzian(catalog("S2"), 0.0)) < 1e-15


class TestJacobianFdOracle:
    def test_analytic_koebe(self):
        f = catalog_map("k")
        want = classical_schwarzian(catalog("k"), 0.2)
        assert abs(schwarzian_via_jacobian_fd(f, 0.2) - want) < 1e-5

    def test_harmonic_koebe(self):
        K = catalog("K")
        z = 0.1 + 0.1j
        assert abs(schwarzian_via_jacobian_fd(K, z) - schwarzian(K, z)) < 1e-5

    def test_affine_gives_zero(self):
        f = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.5*z"))
        assert abs(schwarzian_via_jacobian_fd(f, 0.2 - 0.3j)) < 1e-9

    def test_vanishing_jacobian_names_its_point(self):
        # h' = z and omega = 0: J_f = |z|^2 is 1e-6 at the centre, and 0 at
        # the stencil point that lands on the origin
        f = map_from_json({"form": "dilatation", "h": "z", "omega": "0"})
        with pytest.raises(DomainError, match="log J_f undefined") as err:
            schwarzian_via_jacobian_fd(f, 0.001)
        assert err.value.at == 0.001

    def test_bits_do_not_depend_on_numpys_simd_level(self):
        # numpy's real log rounds differently at AVX-512: np.log of this
        # stencil gave an imaginary part of 0.0010110952886222824 there,
        # and 0.0010110952885085955 (math.log) at AVX2
        require_dispatch("X86_V3")
        f = map_from_json({"form": "parts", "h": "z/(1-(0.3339-0.0588*i)*z)",
                           "g": "(0.017+0.0087*i)*z^2/(1-(0.3339-0.0588*i)*z)"})
        assert schwarzian_via_jacobian_fd(f, 0.2683 - 0.8142j) == complex(
            0.0007531543464263935, 0.0010110952885085955)

    def test_stencil_domain_check(self):
        with pytest.raises(StencilOutsideDomain) as err:
            schwarzian_via_jacobian_fd(catalog_map("K"), 0.9995)
        assert str(err.value) == ("stencil of half-width 0.002 leaves the "
                                  "unit disk at (0.9995+0j)")
        assert err.value.at == 0.9995


class TestLemma1:
    def test_analytic_reduction(self, rng):
        f = catalog_map("s")
        phi = catalog("s")
        for z in disk_points(rng, 5, rmax=0.7):
            z = complex(z)
            assert abs(lemma1_schwarzian(f, z)
                       - classical_schwarzian(phi, z)) < 1e-12

    def test_koebe_at_origin(self):
        K = catalog("K")
        assert abs(lemma1_schwarzian(K, 0.0) + 9.5) < 1e-13
        assert abs(lemma1_schwarzian(K, 0.0) - schwarzian(K, 0.0)) < 1e-13

    def test_half_strip_identity(self):
        S1 = catalog("S1")
        z = 0.3
        assert abs(lemma1_schwarzian(S1, z) - schwarzian(S1, z)) < 1e-10

    def test_array_of_points(self):
        # lambda = -conj(omega(z0)) is one number per point, broadcast
        # over the coefficients of that point
        zs = np.array([0.1, 0.3 + 0.1j, -0.45 + 0.2j, 0.0, 0.85 + 0.2j])
        for f in (catalog_map("K"), map_from_json(_GENERATED[0])):
            got = lemma1_schwarzian(f, zs)
            assert got.shape == zs.shape
            for value, z in zip(got, zs):
                one = lemma1_schwarzian(f, complex(z))
                assert abs(value - one) <= 1e-13 * abs(one)
            want = schwarzian(f, zs)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))


class TestTamanoi:
    def test_analytic_equals_classical(self):
        f = catalog_map("k")
        z = 0.2 + 0.1j
        want = classical_schwarzian(catalog("k"), z)
        assert abs(tamanoi_schwarzian(f, z) - want) < 1e-6

    def test_koebe_at_origin(self):
        assert abs(tamanoi_schwarzian(catalog("K"), 0.0) + 9.5) < 1e-6

    def test_second_coefficient_vanishes_with_dilatation(self):
        # c20 = -conj(w(0)) w'(0)/(2 (1-|w(0)|^2)) = 0 when w(0) = 0
        from harmschwarz import best_harmonic_mobius, bivariate_extract
        f = catalog("S2")
        M = best_harmonic_mobius(f, 0.0)
        coeffs = bivariate_extract(lambda t: M.invert(f.values(t)), degree=3)
        assert abs(coeffs[(2, 0)]) < 1e-8

    def test_works_on_reversing_maps(self):
        K = catalog("K")
        g = conjugate(K)
        z = 0.2 - 0.1j
        assert abs(tamanoi_schwarzian(g, z) - schwarzian(K, z)) < 1e-6

    def test_sample_circles_must_stay_in_the_disk(self):
        # the largest default circle has radius 0.03
        assert np.isfinite(tamanoi_schwarzian(catalog("K"), 0.96))
        with pytest.raises(DomainError):
            tamanoi_schwarzian(catalog("K"), 0.97j)


def _catalog_dilatation_form(name):
    """The dilatation-form map of the h' and omega texts ``catalog NAME``
    prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["catalog", name]) == 0
    d = json.loads(out.getvalue())
    return map_from_json({"form": "dilatation", "h": d["hp"], "omega": d["omega"]})


_HARMONIC = ("K", "L", "S1", "S2", "K2")

# the templates of the benchmark's generated maps (bench/workloads.py),
# with fixed coefficients: h' without zeros in the closed disk, Blaschke-type
# dilatations c*z^k*(z-a)/(1-conj(a)*z), and parts forms with |g'/h'| <= 0.9
_GENERATED = (
    {"form": "dilatation", "h": "(1+(0.3-0.4*i)*z)/(1-(0.2+0.5*i)*z)^3",
     "omega": "(0.5+0.3*i)*(z-(0.2-0.1*i))/(1-(0.2+0.1*i)*z)"},
    {"form": "dilatation", "h": "exp((0.6+0.2*i)*z)/(1-(-0.3+0.4*i)*z)^2",
     "omega": "(-0.4+0.5*i)*z*(z-(0.5+0.2*i))/(1-(0.5-0.2*i)*z)"},
    {"form": "dilatation", "h": "1/((1-(0.1+0.7*i)*z)^2*(1+(0.4-0.2*i)*z))",
     "omega": "(0.7-0.1*i)*z^2*(z-(-0.3+0.6*i))/(1-(-0.3-0.6*i)*z)"},
    {"form": "dilatation", "h": "sqrt(1+(0.5+0.5*i)*z)/(1-(0.3-0.3*i)*z)^2",
     "omega": "(0.2+0.2*i)*(z-(0.7+0.0*i))/(1-(0.7-0.0*i)*z)"},
    {"form": "parts", "h": "z+(0.1+0.2*i)*z^2", "g": "(0.05-0.02*i)*z^2+(0.03+0.04*i)*z^3"},
    {"form": "parts", "h": "exp((0.5-0.3*i)*z)", "g": "(0.1+0.05*i)*z*exp((0.5-0.3*i)*z)"},
)


class TestTamanoiIncrements:
    """The oracle samples f(z0 + t) - f(z0) from z0, in one quadrature pass
    on a dilatation-form map."""

    @staticmethod
    def _dilatation_maps():
        maps = [_catalog_dilatation_form(name) for name in _HARMONIC]
        maps.append(shear(ExprFunction("z/(1-z)"), ExprFunction("0.5*z")))
        return maps + [conjugate(f) for f in maps]

    def test_dilatation_forms_agree_with_schwarzian(self, rng):
        for f in self._dilatation_maps():
            for z in disk_points(rng, 5, rmax=0.45):
                z = complex(z)
                assert abs(tamanoi_schwarzian(f, z) - schwarzian(f, z)) < 1e-6

    @pytest.mark.parametrize("name", _HARMONIC)
    def test_parts_and_dilatation_forms_agree(self, name, rng):
        parts, dil = catalog_map(name), _catalog_dilatation_form(name)
        for f, g in ((parts, dil), (conjugate(parts), conjugate(dil))):
            for z in disk_points(rng, 5, rmax=0.45):
                z = complex(z)
                assert abs(tamanoi_schwarzian(f, z) - tamanoi_schwarzian(g, z)) < 1e-8

    def test_increments_invert_the_best_harmonic_mobius(self):
        # u/(h'(z0) + kappa u) is M^{-1}(f(z0 + t)) solved for t, on the
        # 96 sample points of bivariate_extract and the midpoints between them
        t = (np.array([0.01, 0.02, 0.03])[:, None]
             * np.exp(2j * np.pi * np.arange(64) / 64)[None, :])
        maps = self._dilatation_maps() + [catalog_map(n) for n in _HARMONIC]
        for f in maps:
            f = f.preserving()
            for z0 in (0.0, 0.3 + 0.1j, -0.45 + 0.0j, 0.1 - 0.4j, -0.2 - 0.35j):
                got = _mobius_deviation(f, z0)(t)
                want = best_harmonic_mobius(f, z0).invert(f.values(z0 + t))
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(t))

    def test_pair_integrand_reads_h_prime_once_per_node(self, monkeypatch):
        # omega*h' takes h' from the pair, not from a second tape of g'
        f = _catalog_dilatation_form("K")
        seen = []
        for fn in (f.hp, f.gp, f.omega):
            run = fn.jet
            monkeypatch.setattr(fn, "jet", lambda z, order, run=run, fn=fn:
                                seen.append(fn) or run(z, order))
        tamanoi_schwarzian(f, 0.3 + 0.1j)
        # the jets at z0, then two quadrature levels: omega*h' never runs g'
        assert f.gp not in seen
        assert seen.count(f.hp) == seen.count(f.omega) == 3


class TestTamanoiErrorContract:
    F = {"form": "dilatation", "h": "exp(800*z)", "omega": "0"}

    def test_circle_outside_the_disk(self):
        with pytest.raises(DomainError) as err:
            tamanoi_schwarzian(catalog("K"), 0.97j)
        at = complex(1.8369701987210296e-18, 1.0)  # 0.97j + 0.03 e^{i pi/2}
        assert str(err.value) == f"evaluation point outside the open unit disk at {at}"
        assert err.value.at == at

    @pytest.mark.parametrize("state", ["default", "raise", "warnings-as-errors"])
    def test_overflow_is_non_finite_whatever_the_error_state(self, state):
        # the checked runs set their own error state: no warning, and no
        # FloatingPointError under a caller's trap
        F = map_from_json(self.F)
        calls = [(lambda: schwarzian(F, 0.9), 0.9),
                 (lambda: schwarzian(F, np.array([0.1, 0.9])), 0.9),
                 (lambda: F.value(0.9), 0.8952304207462425),
                 (lambda: tamanoi_schwarzian(F, 0.9), 0.9)]
        for call, at in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error" if state == "warnings-as-errors"
                                      else "ignore")
                with np.errstate(**({"all": "raise"} if state == "raise" else {})):
                    with pytest.raises(NonFinite) as err:
                        call()
            assert str(err.value) == "non-finite jet coefficient"
            assert err.value.at == at

    def test_checked_rerun_never_runs_on_valid_maps(self, monkeypatch):
        import harmschwarz.expr as expr_module
        import harmschwarz.operators as operators_module

        checked, oracle = [], []
        execute, tamanoi = expr_module._execute, operators_module._tamanoi

        def counted_execute(tape, z0, point, shape, check):
            if check and shape is not None:  # a checked run on an array
                checked.append(z0)
            return execute(tape, z0, point, shape, check)

        monkeypatch.setattr(expr_module, "_execute", counted_execute)
        monkeypatch.setattr(operators_module, "_tamanoi",
                            lambda f, z0: oracle.append(z0) or tamanoi(f, z0))
        maps = ([catalog_map(n) for n in CATALOG_NAMES]
                + [_catalog_dilatation_form(n) for n in _HARMONIC]
                + [map_from_json(spec) for spec in _GENERATED])
        points = (0.0, 0.3 + 0.1j, -0.45 + 0.2j, 0.1 - 0.7j, 0.85 + 0.2j)
        for f in maps:
            for z in points:
                tamanoi_schwarzian(f, z)
        assert checked == []
        assert len(oracle) == len(maps) * len(points)

    def test_generated_maps_agree_with_schwarzian(self):
        for spec in _GENERATED:
            f = map_from_json(spec)
            for z in (0.0, 0.3 + 0.1j, -0.45 + 0.2j, 0.1 - 0.7j, 0.85 + 0.2j):
                s = schwarzian(f, z)
                assert abs(tamanoi_schwarzian(f, z) - s) < 1e-6
                assert abs(lemma1_schwarzian(f, z) - s) < 1e-10
                assert abs(schwarzian_via_jacobian_fd(f, z) - s) < 1e-5

    def test_generated_maps_near_the_rim(self):
        # the worst case reads 1.85e-9, at -0.9i on the third spec
        for spec in _GENERATED:
            f = map_from_json(spec)
            for z in _RIM + (0.0, 0.3 + 0.1j, -0.45 + 0.2j, 0.1 - 0.7j, 0.85 + 0.2j):
                assert abs(tamanoi_schwarzian(f, z) - schwarzian(f, z)) < 1e-8

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="nothing checks that h' and omega are analytic "
                              "on the sample circles")
    def test_branch_point_inside_the_sample_circles(self):
        # z0 = 0.5 lies on the branch cut of sqrt(z - 0.52), 0.02 away from
        # the branch point: the oracle reads 38998.7+16697.2i (S_f = -1562.5)
        f = map_from_json({"form": "dilatation", "h": "sqrt(z-0.52)", "omega": "0.1"})
        with pytest.raises(ToolkitError):
            tamanoi_schwarzian(f, 0.5)


_RIM = tuple(0.9 * cmath.exp(2j * cmath.pi * k / 8) for k in range(8))


def _tamanoi_with_angles(f, z0, angles):
    """The Tamanoi oracle with ``angles`` samples per circle, run as
    ``tamanoi_schwarzian`` runs it."""
    def run(f, z0):
        c = bivariate_extract(_mobius_deviation(f, z0), degree=3, angles=angles)
        return 6.0 * (c[(3, 0)] - c[(2, 0)] ** 2)
    return trapped(run, f.preserving(), complex(z0))


def _worst_rim_errors(oracle):
    """The largest |oracle - S_f| over ``_RIM``, for each harmonic catalog
    map in parts form and in dilatation form."""
    worst = {}
    for name in _HARMONIC:
        for form, f in (("parts", catalog_map(name)),
                        ("dilatation", _catalog_dilatation_form(name))):
            worst[name, form] = max(abs(oracle(f, z) - schwarzian(f, z)) for z in _RIM)
    return worst


@pytest.fixture(scope="module")
def rim_errors_at_64_angles():
    return _worst_rim_errors(lambda f, z: _tamanoi_with_angles(f, z, 64))


class TestTamanoiAngles:
    """bivariate_extract reads only the bins |m - n| <= 3, so at 32 angles
    the nearest alias of a kept bin has total order 29: at |z0| = 0.9 the
    error against S_f (up to 2.8e-2 on K) is the radial truncation's, the
    same as at 64 angles, while 16 angles moves it."""

    def test_32_angles_are_as_accurate_as_64(self, rim_errors_at_64_angles):
        got = _worst_rim_errors(tamanoi_schwarzian)
        for key, ref in rim_errors_at_64_angles.items():
            assert abs(got[key] - ref) <= 0.05 * ref, key

    def test_16_angles_are_not(self, rim_errors_at_64_angles):
        # the check above has teeth: every map moves by more than 5 %
        got = _worst_rim_errors(lambda f, z: _tamanoi_with_angles(f, z, 16))
        for key, ref in rim_errors_at_64_angles.items():
            assert abs(got[key] - ref) > 0.05 * ref, key


class TestIdentities:
    def test_conjugation_invariance(self, rng):
        for name in ("K", "L", "S1", "S2", "K2"):
            f = catalog(name)
            g = conjugate(f)
            for z in disk_points(rng, 20, rmax=0.7):
                z = complex(z)
                assert abs(pre_schwarzian(g, z) - pre_schwarzian(f, z)) < 1e-12
                assert abs(schwarzian(g, z) - schwarzian(f, z)) < 1e-12

    def test_affine_invariance(self, rng):
        f = catalog("K")
        for _ in range(10):
            a = 1.0 + rng.random() + 1j * rng.random()
            b = 0.5 * rng.random() * cmath.exp(2j * cmath.pi * rng.random())
            c = complex(rng.standard_normal(), rng.standard_normal())
            F = affine_compose(AffineMap(a, b, c), f)
            for z in disk_points(rng, 3, rmax=0.6):
                z = complex(z)
                assert abs(schwarzian(F, z) - schwarzian(f, z)) < 1e-10
                assert abs(pre_schwarzian(F, z) - pre_schwarzian(f, z)) < 1e-10

    def test_chain_rule_with_mobius(self, rng):
        f = catalog("S2")
        for _ in range(5):
            a = 0.6 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
            phi = disk_automorphism(a)
            F = precompose(f, phi)
            for z in disk_points(rng, 3, rmax=0.6):
                z = complex(z)
                pj = phi.jet(z, 3)
                sphi = complex(6.0 * pj.coeffs[3] / pj.coeffs[1]
                               - 1.5 * (2.0 * pj.coeffs[2] / pj.coeffs[1]) ** 2)
                rhs = schwarzian(f, complex(pj.value)) * complex(pj.coeffs[1]) ** 2 + sphi
                assert abs(schwarzian(F, z) - rhs) < 1e-9

    def test_chain_rule_with_non_mobius(self, rng):
        f = catalog("K")
        phi = ExprFunction("z/2+z^2/8")
        F = precompose(f, phi)
        for z in disk_points(rng, 6, rmax=0.7):
            z = complex(z)
            pj = phi.jet(z, 3)
            sphi = complex(6.0 * pj.coeffs[3] / pj.coeffs[1]
                           - 1.5 * (2.0 * pj.coeffs[2] / pj.coeffs[1]) ** 2)
            pphi = complex(2.0 * pj.coeffs[2] / pj.coeffs[1])
            rhs_s = schwarzian(f, complex(pj.value)) * complex(pj.coeffs[1]) ** 2 + sphi
            rhs_p = pre_schwarzian(f, complex(pj.value)) * complex(pj.coeffs[1]) + pphi
            assert abs(schwarzian(F, z) - rhs_s) < 1e-9
            assert abs(pre_schwarzian(F, z) - rhs_p) < 1e-9

    def test_cdo_vs_harmonic_on_analytic(self, rng):
        f = catalog_map("l")
        for z in disk_points(rng, 5, rmax=0.6):
            z = complex(z)
            assert abs(cdo_schwarzian(f, z) - schwarzian(f, z)) < 1e-12

    def test_oracle_agreement_pairwise(self, rng):
        for name in ("K", "S2"):
            f = catalog(name)
            for z in disk_points(rng, 4, rmax=0.45):
                z = complex(z)
                s = schwarzian(f, z)
                assert abs(s - lemma1_schwarzian(f, z)) < 1e-10
                assert abs(s - schwarzian_via_jacobian_fd(f, z)) < 1e-5
                assert abs(s - tamanoi_schwarzian(f, z)) < 1e-6
