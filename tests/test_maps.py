"""Catalog, shear, compositions, group action, best Moebius, serialization."""

import cmath
import math

import numpy as np
import pytest

from harmschwarz import (
    AffineMap,
    AntiderivativeFunction,
    ExprFunction,
    HarmonicMobius,
    MobiusMap,
    affine_compose,
    best_harmonic_mobius,
    catalog,
    catalog_map,
    conjugate,
    disk_automorphism,
    evaluate,
    group_apply,
    integrate_segment,
    map_from_json,
    map_to_json,
    partner_map,
    pre_schwarzian,
    precompose,
    schwarzian,
    shear,
)
from harmschwarz.errors import (
    DivisionByZeroConstantTerm,
    DomainError,
    NonFinite,
    ParameterOutOfRange,
    UnknownCatalogName,
)
from harmschwarz.jets import derivative_coeffs
from harmschwarz.maps import PRESERVING, REVERSING, HarmonicMap
from conftest import disk_points


class TestCatalog:
    def test_harmonic_koebe_normalization(self):
        K = catalog("K")
        assert abs(K.hp.value(0.0) - 1.0) < 1e-15
        assert abs(K.gp.value(0.0)) < 1e-15
        for z in (0.3, -0.2 + 0.4j, 0.1 - 0.5j):
            assert abs(K.omega.value(z) - z) < 1e-15

    def test_half_plane_at_half(self):
        L = catalog("L")
        assert abs(L.h.value(0.5) - 1.5) < 1e-14
        assert abs(L.g.value(0.5) + 0.5) < 1e-14
        assert abs(evaluate(L, 0.5) - 1.0) < 1e-14

    def test_strip_map_structure(self):
        S2 = catalog("S2")
        z = 0.25 - 0.3j
        assert abs(S2.omega.value(z) - z * z) < 1e-15
        q = catalog("q2")
        s = catalog("s")
        assert abs(S2.h.value(z) - 0.5 * (q.value(z) + s.value(z))) < 1e-14

    def test_unknown_name(self):
        with pytest.raises(UnknownCatalogName):
            catalog("X9")

    @pytest.mark.parametrize("name", ["K", "L", "S1", "S2", "K2"])
    def test_omega_consistent_with_parts(self, name, rng):
        # stored dilatation equals g'/h' from the closed forms
        f = catalog(name)
        for z in disk_points(rng, 6, rmax=0.6):
            z = complex(z)
            w = f.omega.value(z)
            ratio = f.g.derivative().value(z) / f.h.derivative().value(z)
            assert abs(w - ratio) < 1e-11

    @pytest.mark.parametrize("name", ["K", "L", "S1", "S2", "K2"])
    def test_hp_consistent_with_h(self, name, rng):
        f = catalog(name)
        for z in disk_points(rng, 6, rmax=0.6):
            z = complex(z)
            assert abs(f.hp.value(z) - f.h.derivative().value(z)) < 1e-11


class TestShear:
    def test_horizontal_shear_of_koebe(self):
        sh = shear(catalog("k"), ExprFunction("z"), 0.0)
        # h' of the harmonic Koebe map: differentiate the closed form
        assert np.allclose(sh.hp.jet(0.0, 3).coeffs, [1, 5, 14, 30])
        assert abs(sh.h.value(0.0)) < 1e-15
        assert abs(sh.g.value(0.0)) < 1e-15

    def test_vertical_shear_of_half_plane(self):
        sh = shear(catalog("l"), ExprFunction("-z"), math.pi / 2)
        # h'(z) = 1/(1-z)^3
        assert np.allclose(sh.hp.jet(0.0, 3).coeffs, [1, 3, 6, 10], atol=1e-12)
        L = catalog("L")
        for z in (0.2, -0.3 + 0.25j):
            assert abs(sh.hp.value(z) - L.hp.value(z)) < 1e-12

    def test_shear_of_strip_reproduces_s1(self):
        sh = shear(catalog("s"), ExprFunction("z"), 0.0)
        S1 = catalog("S1")
        assert np.allclose(sh.hp.jet(0.0, 3).coeffs,
                           S1.hp.jet(0.0, 3).coeffs, atol=1e-13)
        z = 0.3 - 0.2j
        assert abs(evaluate(sh, z) - evaluate(S1, z)) < 1e-8

    def test_horizontal_shear_definition_identity(self, rng):
        # theta = 0: (h - g)-jet equals the phi-jet at every test point
        phi = catalog("k")
        sh = shear(phi, ExprFunction("z"), 0.0)
        for z in disk_points(rng, 5, rmax=0.5):
            z = complex(z)
            hj = sh.h.jet(z, 3)
            gj = sh.g.jet(z, 3)
            pj = phi.jet(z, 3)
            diff = hj.coeffs - gj.coeffs - pj.coeffs
            scale = max(1.0, np.max(np.abs(pj.coeffs)))
            assert np.max(np.abs(diff)) <= 1e-10 * scale

    def test_shear_singularity(self):
        sh = shear(catalog("k"), ExprFunction("1-z"), 0.0)
        with pytest.raises(DivisionByZeroConstantTerm):
            sh.hp.jet(0.0, 2)

    def test_trivial_shear(self):
        sh = shear(ExprFunction("z"), ExprFunction("z"), 0.0)
        # h' = 1/(1-z)
        assert np.allclose(sh.hp.jet(0.0, 3).coeffs, [1, 1, 1, 1])

    @pytest.mark.parametrize("theta", [1e308, -1e308, float("nan"),
                                       float("inf")])
    def test_theta_with_infinite_double_rejected(self, theta):
        with pytest.raises(ParameterOutOfRange, match="theta"):
            shear(catalog("k"), ExprFunction("z"), theta)

    def test_functions_without_source_rejected(self):
        # the h of a dilatation-form map is an antiderivative, with no text
        textless = HarmonicMap.from_dilatation(ExprFunction("1"), ExprFunction("0")).h
        assert isinstance(textless, AntiderivativeFunction)
        with pytest.raises(ParameterOutOfRange, match="source"):
            shear(textless, ExprFunction("z"), 0.0)
        with pytest.raises(ParameterOutOfRange, match="source"):
            shear(catalog("k"), textless, 0.0)


class TestAffine:
    def test_degenerate_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            AffineMap(1.0, 1.0, 0.0)

    def test_call_evaluates(self):
        # a*w + b*conj(w) + c
        assert AffineMap(1, 0.5, 2)(0.3 + 0.1j) == (0.3 + 0.1j) + 0.5 * (0.3 - 0.1j) + 2

    def test_identity(self, rng):
        f = catalog("K")
        F = affine_compose(AffineMap(1.0, 0.0, 0.0), f)
        for z in disk_points(rng, 4, rmax=0.5):
            z = complex(z)
            assert abs(F.value(z) - f.value(z)) < 1e-14
            assert abs(F.omega.value(z) - f.omega.value(z)) < 1e-14

    def test_dilatation_formula(self, rng):
        # A = (1, alpha, 0): omega_F = (omega + conj(alpha))/(1 + alpha*omega)
        alpha = 0.3 - 0.4j
        f = catalog("S2")
        F = affine_compose(AffineMap(1.0, alpha, 0.0), f)
        for z in disk_points(rng, 5, rmax=0.6):
            z = complex(z)
            w = f.omega.value(z)
            want = (w + np.conjugate(alpha)) / (1.0 + alpha * w)
            assert abs(F.omega.value(z) - want) < 1e-13

    def test_koebe_example(self):
        F = affine_compose(AffineMap(1.0, 0.5, 1.0 + 1.0j), catalog("K"))
        assert abs(F.omega.value(0.0) - 0.5) < 1e-15
        # value picks up the translation: A(K(0)) = 1+i
        assert abs(F.value(0.0) - (1.0 + 1.0j)) < 1e-15

    def test_reversing_where_h_prime_vanishes(self):
        # H' = (0.5 + z) K.h' vanishes at -0.5 and omega has a pole there;
        # the preserving representative conj(F) has h' = G' = 0.75 K.h'
        K = catalog("K")
        F = affine_compose(AffineMap(0.5, 1.0, 0.0), K)
        assert F.sense == REVERSING
        hpj, wj = F.derivative_data(-0.5)
        assert abs(hpj.value - 0.75 * K.hp.value(-0.5)) < 1e-15
        assert wj.value == 0
        for z in (-0.5, 0.2 - 0.3j):
            assert abs(schwarzian(F, z) - schwarzian(K, z)) < 1e-10
            assert abs(pre_schwarzian(F, z) - pre_schwarzian(K, z)) < 1e-10

    def test_form_of_derived_dilatation_map(self):
        # form names the fields map_to_json writes: the composite's h is
        # the antiderivative of its h' = 2*h' + 0.5*g', and it reloads
        sh = shear(ExprFunction("z/(1-z)"), ExprFunction("0.5*z"))
        assert sh.form == "dilatation"
        F = affine_compose(AffineMap(2.0, 0.5, 0.0), sh)
        assert F.form == "dilatation"
        d = map_to_json(F)
        assert d["h"] == ("2.0*(d(z/(1.0-z))/(1.0-1.0*(0.5*z)))"
                          "+0.5*(0.5*z*(d(z/(1.0-z))/(1.0-1.0*(0.5*z))))")
        g = map_from_json(d)
        for z in (0.3 - 0.2j, np.array([0.0, -0.4 + 0.1j])):
            for got, want in zip(g.derivative_data(z), F.derivative_data(z)):
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert abs(evaluate(g, 0.3) - evaluate(F, 0.3)) < 1e-13

    def test_sense_flip(self):
        f = catalog("K")
        assert affine_compose(AffineMap(2.0, 0.5, 0.0), f).sense == PRESERVING
        assert affine_compose(AffineMap(0.5, 2.0, 0.0), f).sense == REVERSING


class TestPrecompose:
    def test_identity(self):
        f = catalog("K")
        F = precompose(f, ExprFunction("z"))
        z = 0.3 + 0.2j
        assert abs(F.value(z) - f.value(z)) < 1e-14

    def test_automorphism_at_zero_parameter(self):
        f = catalog("S1")
        F = precompose(f, disk_automorphism(0.0))
        z = 0.25 - 0.1j
        assert abs(F.value(z) - f.value(z)) < 1e-13
        assert abs(F.omega.value(z) - f.omega.value(z)) < 1e-13

    def test_half_scaling_of_koebe(self):
        F = precompose(catalog("K"), ExprFunction("z/2"))
        assert abs(F.omega.value(0.0)) < 1e-15  # omega(phi(0)) = omega(0) = 0
        assert abs(F.hp.value(0.0) - 0.5) < 1e-15  # h'(0) * phi'(0)


class TestConjugate:
    def test_involution_is_exact(self):
        f = catalog("K")
        assert conjugate(conjugate(f)) is f

    def test_sense_flip_on_analytic(self):
        f = catalog_map("k")
        assert conjugate(f).sense == REVERSING

    def test_values_conjugate(self, rng):
        f = catalog("L")
        g = conjugate(f)
        for z in disk_points(rng, 4, rmax=0.5):
            z = complex(z)
            assert abs(g.value(z) - np.conjugate(f.value(z))) < 1e-13

    @pytest.mark.parametrize("build", [
        lambda: affine_compose(AffineMap(0.5, 1, 0), catalog("K")),
        lambda: HarmonicMap.from_parts(ExprFunction("0.3*z^2+0.1*z"),
                                       ExprFunction("z/(1-z)^2"),
                                       sense=REVERSING),
    ], ids=["affine_compose", "from_parts"])
    def test_reversing_map_conjugate_is_built_once(self, build):
        F = build()
        assert F.sense == REVERSING
        assert F.preserving() is F.preserving()
        assert conjugate(F) is conjugate(F) is F.preserving()
        assert conjugate(conjugate(F)) is F


class TestGroup:
    def test_rp_identity(self):
        f = catalog("S2")
        F = group_apply(f, "Rp", 1.0)
        z = 0.2 + 0.3j
        assert abs(F.value(z) - f.value(z)) < 1e-14

    def test_i_zero_identity(self):
        f = catalog("S2")
        F = group_apply(f, "I", 0.0)
        z = 0.2 + 0.3j
        assert abs(F.value(z) - f.value(z)) < 1e-14

    def test_i_moves_dilatation(self):
        F = group_apply(catalog("K"), "I", 0.3)
        assert abs(F.omega.value(0.0) - 0.3) < 1e-15

    def test_i_matches_affine_definition(self, rng):
        # I_a(f) = f + conj(a f)
        a = 0.2 - 0.35j
        f = catalog("S2")
        F = group_apply(f, "I", a)
        for z in disk_points(rng, 4, rmax=0.5):
            z = complex(z)
            want = f.value(z) + np.conjugate(a * f.value(z))
            assert abs(F.value(z) - want) < 1e-13

    def test_rq_scales_omega(self, rng):
        mu = cmath.exp(1.1j)
        f = catalog("K")
        F = group_apply(f, "Rq", mu)
        for z in disk_points(rng, 5, rmax=0.6):
            wj = F.omega.jet(complex(z), 2)
            base = f.omega.jet(complex(z), 2)
            assert np.max(np.abs(wj.coeffs - mu * base.coeffs)) < 1e-12

    def test_parameter_validation(self):
        f = catalog("K")
        with pytest.raises(ParameterOutOfRange):
            group_apply(f, "Rp", 0.0)
        with pytest.raises(ParameterOutOfRange):
            group_apply(f, "Rq", 1.2)
        with pytest.raises(ParameterOutOfRange):
            group_apply(f, "I", 1.0)
        with pytest.raises(ParameterOutOfRange):
            group_apply(f, "Q", 0.5)


class TestPartner:
    def test_identity_parameters(self):
        f = catalog("S2")
        F = partner_map(f, 0.0, 1.0, 1.0)
        z = 0.3 + 0.1j
        assert abs(F.omega.value(z) - f.omega.value(z)) < 1e-14
        assert abs(F.hp.value(z) - f.hp.value(z)) < 1e-14

    def test_evaluable_at_dilatation_zero(self):
        # omega(0) = 0 for S2, phi_a moves it off zero; jets stay finite
        F = partner_map(catalog("S2"), 0.5, 1.0, 2.0)
        assert np.all(np.isfinite(F.hp.jet(0.0, 2).coeffs))

    def test_parameter_validation(self):
        f = catalog("S2")
        with pytest.raises(ParameterOutOfRange):
            partner_map(f, 1.1, 1.0, 1.0)
        with pytest.raises(ParameterOutOfRange):
            partner_map(f, 0.0, 0.5, 1.0)
        with pytest.raises(ParameterOutOfRange):
            partner_map(f, 0.0, 1.0, 0.0)

    def test_reversing_map_rejected(self):
        with pytest.raises(DomainError, match="sense-preserving"):
            partner_map(conjugate(catalog("K")), 0.0, 1.0, 1.0)


class TestParameterOutOfRange:
    @pytest.mark.parametrize("build, message", [
        (lambda: MobiusMap(1, 2, 2, 4), "ad - bc = 0"),
        (lambda: HarmonicMobius(MobiusMap(1, 0, 0, 1), 1.0), r"\|alpha\| < 1"),
        (lambda: disk_automorphism(1.0), r"\|a\| < 1"),
        (lambda: HarmonicMap(ExprFunction("z"), ExprFunction("0"), ExprFunction("1"),
                             ExprFunction("0"), None, "sideways"), "sense flag"),
    ], ids=["MobiusMap", "HarmonicMobius", "disk_automorphism", "sense"])
    def test_rejected(self, build, message):
        with pytest.raises(ParameterOutOfRange, match=message):
            build()


_NAN, _INF = float("nan"), float("inf")


class TestNonFiniteParameters:
    # a constant of a tree must have a text that reparses: nan and inf
    # have none, so each construction rejects them up front
    @pytest.mark.parametrize("build", [
        lambda: group_apply(catalog("K"), "I", _NAN),
        lambda: group_apply(catalog("K"), "Rq", complex(_NAN, 1.0)),
        lambda: group_apply(catalog("K"), "Rp", _INF),
        lambda: AffineMap(_NAN, 0.0, 0.0),
        lambda: partner_map(catalog("S2"), _NAN, 1.0, 1.0),
        lambda: partner_map(catalog("S2"), 0.0, _NAN, 1.0),
        lambda: partner_map(catalog("S2"), 0.0, 1.0, _INF),
        lambda: HarmonicMobius(MobiusMap(1.0, 0.0, 0.0, 1.0), _NAN),
        lambda: MobiusMap(1.0, _INF, 0.0, 1.0),
        lambda: disk_automorphism(_NAN),
    ], ids=["I", "Rq", "Rp", "AffineMap", "partner a", "partner mu",
            "partner lam", "HarmonicMobius", "MobiusMap", "disk_automorphism"])
    def test_rejected(self, build):
        with pytest.raises(ParameterOutOfRange, match="finite"):
            build()


class TestEvaluate:
    def test_koebe_normalized(self):
        assert abs(evaluate(catalog("K"), 0.0)) < 1e-15

    def test_shear_matches_catalog(self):
        sh = shear(catalog("k"), ExprFunction("z"), 0.0)
        K = catalog("K")
        assert abs(evaluate(sh, 0.3) - evaluate(K, 0.3)) < 1e-8

    def test_path_independence(self):
        # analyticity: integral over [0,z] equals the two-segment route
        sh = shear(catalog("k"), ExprFunction("z"), 0.0)
        z = 0.35 + 0.4j
        mid = 0.5j * abs(z)
        direct = integrate_segment(sh.hp.value, 0.0, z)
        elbow = integrate_segment(sh.hp.value, 0.0, mid) + \
            integrate_segment(sh.hp.value, mid, z)
        assert abs(direct - elbow) < 1e-7

    @pytest.mark.parametrize("f", [
        catalog("K"),
        HarmonicMap.from_dilatation(ExprFunction("1/(1-z)^4"),
                                    ExprFunction("z^2")),
    ], ids=["parts", "dilatation"])
    def test_points_outside_disk_rejected(self, f):
        for z, first in (([0.5, 1.5, -1.5], 1.5), (np.array([0.2j, -1.5]), -1.5),
                         (1.0, 1.0)):
            with pytest.raises(DomainError) as exc:
                evaluate(f, z)
            assert exc.value.at == first

    @pytest.mark.parametrize("f", [
        catalog("K"),
        HarmonicMap.from_dilatation(ExprFunction("1/(1-z)^4"),
                                    ExprFunction("z^2")),
    ], ids=["parts", "dilatation"])
    def test_value_and_values_check_the_disk(self, f):
        with pytest.raises(DomainError) as exc:
            f.value(1.5)
        assert exc.value.at == 1.5
        with pytest.raises(DomainError) as exc:
            f.values([0.5, -1.5j, 2.0])
        assert exc.value.at == -1.5j
        assert f.values([0.3, -0.2j]).tolist() == [evaluate(f, 0.3),
                                                   evaluate(f, -0.2j)]


class TestBestHarmonicMobius:
    def test_mobius_fixed_point(self):
        T = MobiusMap(1.5 + 0.2j, 0.3, -0.4 + 0.1j, 1.0)
        f = HarmonicMap.from_parts(T.as_function(), ExprFunction("0"))
        M = best_harmonic_mobius(f, 0.1 + 0.2j)
        assert abs(M.alpha) < 1e-14
        for t in (0.05, -0.04 + 0.03j):
            assert abs(M.T(t) - T(0.1 + 0.2j + t)) < 1e-12

    def test_harmonic_mobius_recovered(self):
        T = MobiusMap(1.0, 0.5, 0.2j, 1.0)
        alpha = 0.3 - 0.2j
        f = HarmonicMobius(T, alpha).as_harmonic_map()
        z0 = 0.15 - 0.1j
        M = best_harmonic_mobius(f, z0)
        assert abs(M.alpha - alpha) < 1e-13
        for t in (0.03, 0.02j):
            assert abs(M(t) - f.value(z0 + t)) < 1e-12

    # the germ is read through derivative_data, so its errors are those of
    # the operators
    def test_vanishing_h_prime_names_its_point(self):
        f = HarmonicMap.from_dilatation(ExprFunction("z"), ExprFunction("0"))
        with pytest.raises(DomainError) as err:
            best_harmonic_mobius(f, 0)
        assert str(err.value) == "h' vanishes at 0j"
        assert err.value.at == 0

    def test_reversing_dilatation_names_its_point(self):
        f = map_from_json({"form": "dilatation", "h": "1", "omega": "2"})
        with pytest.raises(DomainError) as err:
            best_harmonic_mobius(f, 0.1)
        assert str(err.value) == ("|omega| >= 1 (map not sense-preserving) "
                                  "at (0.1+0j)")
        assert err.value.at == 0.1

    def test_repr(self):
        assert repr(MobiusMap(1, 0.5j, 0, 2)) == "MobiusMap((1+0j), 0.5j, 0j, (2+0j))"

    def test_koebe_at_origin(self):
        # alpha = 0 and T(t) = t/(1 - (5/2) t) since h''(0) = 5
        M = best_harmonic_mobius(catalog("K"), 0.0)
        assert abs(M.alpha) < 1e-15
        for t in (0.1, -0.05 + 0.07j):
            assert abs(M.T(t) - t / (1.0 - 2.5 * t)) < 1e-14

    def test_matching_conditions(self, rng):
        # value, d/dz, d/dzbar, d^2/dz^2 agree with f at the expansion point
        for name in ("K", "S2", "L"):
            f = catalog(name)
            for z0 in disk_points(rng, 3, rmax=0.5):
                z0 = complex(z0)
                M = best_harmonic_mobius(f, z0)
                tj = M.T.as_function().jet(0.0, 2)
                hj = f.h.jet(z0, 2)
                gj = f.g.jet(z0, 2)
                fval = f.value(z0)
                mval = complex(tj.coeffs[0]) + M.alpha * np.conjugate(tj.coeffs[0])
                assert abs(mval - fval) <= 1e-9
                assert abs(complex(tj.coeffs[1]) - complex(hj.coeffs[1])) <= 1e-9
                dz_bar_M = M.alpha * np.conjugate(complex(tj.coeffs[1]))
                assert abs(dz_bar_M - np.conjugate(complex(gj.coeffs[1]))) <= 1e-9
                assert abs(2.0 * complex(tj.coeffs[2])
                           - 2.0 * complex(hj.coeffs[2])) <= 1e-9


class TestSerialization:
    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown map form 'polar'"):
            map_from_json({"form": "polar", "h": "z", "g": "0"})

    def test_parts_roundtrip(self):
        f = catalog("K")
        d = map_to_json(f)
        assert d["form"] == "parts" and d["sense"] == PRESERVING
        g = map_from_json(d)
        z = 0.2 - 0.3j
        assert abs(g.value(z) - f.value(z)) < 1e-13

    def test_dilatation_roundtrip(self):
        d = {"label": "t", "form": "dilatation", "h": "1/(1-z)^4",
             "omega": "z^2", "sense": PRESERVING}
        f = map_from_json(d)
        K2 = catalog("K2")
        z = 0.3 + 0.1j
        assert abs(f.hp.value(z) - K2.hp.value(z)) < 1e-13
        assert abs(evaluate(f, z) - evaluate(K2, z)) < 1e-8
        assert map_to_json(f) == d

    def test_shear_roundtrip_is_bitwise(self):
        # phi(0) = 1: the library shear and the loader both take h(0) = 0
        f = shear(ExprFunction("1+z/(1-z)^2"), ExprFunction("z"))
        g = map_from_json(map_to_json(f))
        assert evaluate(f, 0.3) == 0.900874635568513
        for z in (0.3, -0.2 + 0.45j, 0.1 - 0.6j):
            assert evaluate(g, z) == evaluate(f, z)

    def test_expression_parts_serialize(self):
        f = HarmonicMap.from_parts(ExprFunction("z+z^2/3"),
                                   ExprFunction("(0.2-0.1*i)*z^2"))
        d = map_to_json(f)
        assert d == {"label": "", "form": "parts", "h": "z+z^2/3",
                     "g": "(0.2-0.1*i)*z^2", "sense": PRESERVING}
        g = map_from_json(d)
        for z in (0.3, -0.2 + 0.45j):
            assert g.value(z) == f.value(z)

    def test_explicit_omega_roundtrips(self):
        f = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.5*z^2"),
                                   omega=ExprFunction("z"))
        d = map_to_json(f)
        assert d == {"label": "", "form": "parts", "h": "z", "g": "0.5*z^2",
                     "omega": "z", "sense": PRESERVING}
        g = map_from_json(d)
        assert isinstance(g.omega, ExprFunction) and g.omega.source == "z"
        assert map_to_json(g) == d
        for got, want in zip(g.derivative_data(0.3 - 0.2j),
                             f.derivative_data(0.3 - 0.2j)):
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_conjugate_serializes(self):
        K = catalog("K")
        f = conjugate(K)
        d = map_to_json(f)
        assert d["sense"] == REVERSING
        assert (d["h"], d["g"]) == (K.g.source, K.h.source)
        g = map_from_json(d)
        assert g.sense == REVERSING
        for z in (0.3, -0.2 + 0.45j):
            assert g.value(z) == f.value(z)

    def test_loaded_conjugate_at_zero_of_h_prime(self):
        # the loaded conj(K) has h = K.g, whose derivative vanishes at 0
        K = catalog("K")
        g = map_from_json(map_to_json(conjugate(K)))
        hpj, wj = g.derivative_data(0.0)
        assert hpj.value == 1.0 and wj.value == 0
        for z in (0.0, 0.3 - 0.2j):
            assert abs(schwarzian(g, z) - schwarzian(K, z)) < 1e-12
            assert abs(pre_schwarzian(g, z) - pre_schwarzian(K, z)) < 1e-12

    def test_partner_map_round_trip(self):
        F = partner_map(catalog("S2"), 0.5, 1.0, 2.0)
        d = map_to_json(F)
        assert d == {"label": "partner(S2)", "form": "dilatation",
                     "h": "1.0/(1.0-z^2.0)^2.0*2.0/sqrt(0.75/((1.0+0.5*z^2.0)"
                          "*(1.0+0.5*z^2.0)))",
                     "omega": "1.0*((0.5+z^2.0)/(1.0+0.5*z^2.0))",
                     "sense": PRESERVING}
        g = map_from_json(d)
        for z in (0.3 + 0.1j, np.array([0.0, -0.45 + 0.2j])):
            assert (np.asarray(pre_schwarzian(g, z)).tobytes()
                    == np.asarray(pre_schwarzian(F, z)).tobytes())


# the harmonic catalog maps carry the text of h' and omega
_PARTS_WITH_TEXTS = ("K", "L", "S1", "S2", "K2")


class TestPartsAgainstDilatationForm:
    # a parts-form map with h' and omega texts evaluates the same two
    # expressions as the dilatation-form map of those texts, so the
    # operators read the same bits
    @pytest.mark.parametrize("name", _PARTS_WITH_TEXTS)
    @pytest.mark.parametrize("z", [0.3 + 0.1j, -0.45 + 0.2j, 0.0, "array"])
    def test_operators_bitwise(self, name, z):
        if z == "array":
            z = np.array([0.3 + 0.1j, -0.45 + 0.2j, 0.0, 0.1 - 0.7j])
        parts = catalog_map(name)
        spec = map_to_json(parts)
        assert spec["form"] == "parts" and {"hp", "omega"} <= set(spec)
        dilatation = map_from_json({"form": "dilatation", "h": spec["hp"],
                                    "omega": spec["omega"]})
        for op in (pre_schwarzian, schwarzian):
            a, b = np.asarray(op(parts, z)), np.asarray(op(dilatation, z))
            assert a.shape == b.shape == np.shape(z)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("z", [0.3 + 0.1j, "array"])
    def test_antiderivative_jet(self, z):
        # the jet of h = integral of h': the value by quadrature, then the
        # coefficients of h' shifted
        if z == "array":
            z = np.array([0.3 + 0.1j, -0.45 + 0.2j, 0.1 - 0.7j])
        F = map_from_json({"form": "dilatation", "h": "(1+z)/(1-z)^4", "omega": "z"})
        assert isinstance(F.h, AntiderivativeFunction)
        got, want = F.h.jet(z, 3), catalog_map("K").h.jet(z, 3)
        assert got.coeffs.shape == want.coeffs.shape == (4,) + np.shape(z)
        assert np.all(np.abs(got.coeffs[0] - want.coeffs[0]) <= 1e-8)
        assert np.all(np.abs(got.coeffs[1:] - want.coeffs[1:])
                      <= 1e-12 * np.abs(want.coeffs[1:]))


class TestDerivedHPrime:
    def test_derived_h_prime_is_not_serialized(self):
        # h' = d/dz h of a parts-form map without an hp text runs on a
        # tape of its own, and the JSON still carries only h and g
        f = map_from_json({"form": "parts", "h": "z/(1-z)^2", "g": "0.1*z^2"})
        assert map_to_json(f) == {"label": "", "form": "parts", "h": "z/(1-z)^2",
                                  "g": "0.1*z^2", "sense": PRESERVING}
        z = 0.3 + 0.1j
        assert (f.hp.jet(z, 2).coeffs.tobytes()
                == derivative_coeffs(f.h.jet(z, 3).coeffs).tobytes())

    def test_only_the_derivative_of_h_itself_is_left_out(self):
        # a reversing map writes the h' of its conjugate, derived from the
        # conjugate's h; a precomposed h' is composed apart from its h,
        # so it is a tree of its own and is written
        f = map_from_json({"form": "parts", "h": "0.1*z^2", "g": "z/(1-z)^2",
                           "sense": REVERSING})
        assert "hp" not in map_to_json(f)
        f = map_from_json({"form": "parts", "h": "z/(1-z)^2", "g": "0.1*z^2"})
        F = precompose(f, disk_automorphism(0.2))
        assert map_to_json(F)["hp"] == F.hp.source
        assert (map_from_json(map_to_json(F)).hp.jet(0.3, 2).coeffs.tobytes()
                == F.hp.jet(0.3, 2).coeffs.tobytes())

    def test_errors_name_the_path_in_h(self):
        # the derived h' is d(h), so its path is that of the text d(log(z))
        # given as h' of a dilatation-form map
        want = ("derivative data unavailable: log of jet with "
                "zero constant term [ast /d/log] at 0j")
        for d in ({"form": "parts", "h": "log(z)", "g": "0"},
                  {"form": "dilatation", "h": "d(log(z))", "omega": "0"}):
            with pytest.raises(DomainError) as err:
                pre_schwarzian(map_from_json(d), 0.0)
            assert str(err.value) == want


class TestDerivativeData:
    @pytest.mark.parametrize("sense", [PRESERVING, REVERSING])
    @pytest.mark.parametrize("orders", [(0, 0), (1, 1), (2, 2), (2, 3)])
    def test_quotient_omega_evaluates_each_part_once(self, sense, orders, monkeypatch):
        # h' and g' are d(h) and d(g), tapes of their own (h and g one order
        # higher, then a derivative instruction), and omega = g'/h' divides
        # their jets: one call runs the tape of h' through order_h, then
        # that of g', and the tape of h' once more only when omega needs
        # the higher order
        import harmschwarz.expr as expr_module

        runs = []
        run_tape = expr_module._run_tape
        monkeypatch.setattr(expr_module, "_run_tape",
                            lambda tape, z: runs.append(tape) or run_tape(tape, z))
        h, g = ExprFunction("z/(1-z)^2"), ExprFunction("0.3*z^2+0.1*z")
        if sense == PRESERVING:
            f = HarmonicMap.from_parts(h, g)
        else:  # served by its conjugate h + conj(g), whose omega is g'/h'
            f = HarmonicMap.from_parts(g, h, sense=REVERSING)
        p = f.preserving()
        assert p.hp.ast.arg is h.ast and p.gp.ast.arg is g.ast
        for z in (0.3 + 0.1j, np.array([0.3 + 0.1j, -0.2 + 0.5j])):
            runs.clear()
            f.derivative_data(z, *orders)
            owner = {id(tape): name for name, fn in (("h'", p.hp), ("g'", p.gp))
                     for tape in fn._tapes.values()}
            want = ["h'", "g'"] + ["h'"] * (orders[1] > orders[0])
            assert [owner.get(id(tape)) for tape in runs] == want

    def test_lower_order_failure_is_reported_first(self):
        # orders (0, 2): h' through order 0, then g', which has a pole at
        # 0.35; h' overflows there only through order 2
        f = map_from_json({"form": "parts", "h": "exp(2000*z)",
                           "g": "1e-3/(z-0.35)"})
        with pytest.raises(DomainError) as err:
            f.derivative_data(0.35, 0, 2)
        assert str(err.value) == ("derivative data unavailable: jet division "
                                  "by zero constant term [ast /d/div] at (0.35+0j)")
        assert err.value.at == 0.35
        with pytest.raises(NonFinite):
            f.derivative_data(0.35, 2, 2)

    def test_division_error_names_the_failing_point(self):
        f = HarmonicMap.from_parts(ExprFunction("1/(z-0.5)"), ExprFunction("0"))
        with pytest.raises(DomainError) as err:
            f.derivative_data(np.array([0.1, 0.5, 0.2j]))
        assert err.value.at == 0.5

    def test_branch_point_error_names_the_failing_point(self):
        f = HarmonicMap.from_dilatation(ExprFunction("sqrt(z-0.5)"),
                                        ExprFunction("0.5*z"))
        with pytest.raises(DomainError) as err:
            f.derivative_data(np.array([0.1, 0.5, 0.2j]))
        assert err.value.at == 0.5

    def test_jets_run_under_the_trap_unchecked(self, monkeypatch):
        # the tapes of h' and omega check no slot; the caller's error
        # state is back in force afterwards
        import harmschwarz.expr as expr_module
        import harmschwarz.jets as jets_module

        calls = []
        monkeypatch.setattr(expr_module, "check_finite",
                            lambda coeffs, center: calls.append(center))
        monkeypatch.setattr(jets_module, "check_finite",
                            lambda coeffs, center: calls.append(center))
        f = catalog_map("K")
        with np.errstate(all="ignore"):
            hpj, wj = f.derivative_data(np.array([0.3 + 0.1j, -0.2 + 0.5j]), 2, 2)
            assert np.geterr()["over"] == "ignore"
        assert calls == []
        checked = f.hp.jet(np.array([0.3 + 0.1j, -0.2 + 0.5j]), 2)
        assert calls and checked.coeffs.tobytes() == hpj.coeffs.tobytes()

    @pytest.mark.parametrize("h, at", [("1/exp(1000*z)", 0.9),
                                       ("z+z^-512", 0.1)])
    def test_overflow_under_the_trap_is_the_checked_error(self, h, at):
        # exp overflows where 1/exp would read 0; 0.1^512 underflows, which
        # numpy does not trap, so 1/0.1^512 is an overflowing power
        f = HarmonicMap.from_dilatation(ExprFunction(h), ExprFunction("0"))
        zs = np.array([0.3, at, 0.5])
        with np.errstate(all="ignore"):
            with pytest.raises(NonFinite) as trapped:
                f.derivative_data(zs)
            with pytest.raises(NonFinite) as checked:
                f.hp.jet(zs, 2)
        assert str(trapped.value) == str(checked.value)
        assert trapped.value.at == checked.value.at == at
