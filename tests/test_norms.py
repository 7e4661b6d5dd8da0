"""Norm estimation, Becker criterion, finiteness comparisons."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from harmschwarz import (
    ExprFunction,
    HarmonicMap,
    SearchConfig,
    becker_check,
    becker_lhs,
    catalog,
    catalog_map,
    disk_automorphism,
    finite_norm_compare,
    hyperbolic_sup,
    map_from_json,
    map_to_json,
    omega_second_derivative_probe,
    precompose,
    pre_schwarzian,
    schwarzian,
)
from harmschwarz import norms
from harmschwarz.errors import DomainError, NonFinite, ParameterOutOfRange
from harmschwarz.maps import CATALOG_NAMES


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(rays=4)
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(radial_samples=2)
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(rmax=1.0)
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(refine_iterations=-3)
        SearchConfig(refine_iterations=0)
        SearchConfig(np.int64(8), np.int32(8), refine_iterations=np.int64(0))

    @pytest.mark.parametrize("field, value", [
        ("rays", 8.5), ("rays", 16.0), ("rays", True), ("radial_samples", 8.5),
        ("radial_samples", "16"), ("refine_iterations", 2.5),
        ("refine_iterations", False),
    ])
    def test_counts_are_integers(self, field, value):
        # a float rays would sweep angles that do not close the circle, and
        # a float refine_iterations would fail in range() as a TypeError
        with pytest.raises(ParameterOutOfRange, match="must be an integer"):
            SearchConfig(**{field: value})


class TestHyperbolicSup:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="unknown operator tag 'Q'"):
            hyperbolic_sup(catalog("K"), "Q")

    def test_half_plane_constant_modulus(self, rng):
        L = catalog("L")
        rep = hyperbolic_sup(L, "S")
        assert abs(rep.value - 1.5) <= 1e-9
        # the weighted modulus is constant on the whole disk
        for z in 0.95 * (rng.random(100) + 1j * rng.random(100) - 0.5 - 0.5j):
            w = abs(schwarzian(L, complex(z))) * (1 - abs(z) ** 2) ** 2
            assert abs(w - 1.5) <= 1e-9

    @pytest.mark.parametrize("state", ["default", "raise", "ignore"])
    def test_quotient_overflow_reruns_with_flags_ignored(self, monkeypatch, state):
        # omega = g'/h' = 2e310*z overflows in the jet division, outside
        # any tape: numpy raises under the trap and the sweep runs again
        # with every flag ignored (expr.trapped), whatever the caller's state
        f = HarmonicMap.from_parts(ExprFunction("1e-300*z"), ExprFunction("1e10*z^2"))
        seen = []
        evaluate = HarmonicMap._evaluate_hp_omega

        def spy(self, *args):
            seen.append(np.geterr()["over"])
            return evaluate(self, *args)

        monkeypatch.setattr(HarmonicMap, "_evaluate_hp_omega", spy)
        cfg = SearchConfig(rays=8, radial_samples=8)
        with np.errstate(**({} if state == "default" else {"all": state})):
            with pytest.raises(NonFinite, match="^non-finite jet coefficient$") as err:
                hyperbolic_sup(f, "S", cfg)
        assert err.value.at == 0
        assert seen[-2:] == ["raise", "ignore"]

    def test_strip_interior_max(self):
        rep = hyperbolic_sup(catalog("S2"), "S")
        assert abs(rep.value - 4.0) <= 1e-6
        assert abs(rep.argmax) <= 1e-9
        assert not rep.boundary_flag

    def test_half_plane_pre_schwarzian_boundary(self):
        rep = hyperbolic_sup(catalog("L"), "P")
        assert rep.value >= 4.999998
        assert rep.boundary_flag

    def test_k2_boundary_flag(self):
        rep = hyperbolic_sup(catalog("K2"), "S")
        assert rep.value >= 9.45
        assert rep.boundary_flag

    def test_report_reevaluation_invariant(self):
        for name, op in (("K", "S"), ("L", "P")):
            rep = hyperbolic_sup(catalog(name), op)
            power = 1 if op == "P" else 2
            opfn = pre_schwarzian if op == "P" else schwarzian
            r = abs(rep.argmax)
            w = abs(opfn(catalog(name), rep.argmax)) * ((1 - r) * (1 + r)) ** power
            assert abs(w - rep.value) <= 1e-12 * max(1.0, rep.value)

    def test_monotone_under_grid_doubling(self):
        for name in ("S2", "K2"):
            f = catalog(name)
            small = SearchConfig(rays=32, radial_samples=16,
                                 refine_iterations=40)
            big = SearchConfig(rays=64, radial_samples=32,
                               refine_iterations=40)
            v1 = hyperbolic_sup(f, "S", small).value
            v2 = hyperbolic_sup(f, "S", big).value
            # lower-bound semantics: denser grids never lose points;
            # allow refinement rounding at the 1e-9 level
            assert v2 >= v1 - 1e-9

    def test_automorphism_invariance_of_the_norm(self):
        f = catalog("S2")
        base = hyperbolic_sup(f, "S").value
        composed = precompose(f, disk_automorphism(0.4 - 0.2j))
        moved = hyperbolic_sup(composed, "S").value
        assert abs(moved - base) <= 1e-4

    def test_convex_bounds(self):
        for name in ("L", "S1", "S2"):
            f = catalog(name)
            assert hyperbolic_sup(f, "S").value <= 6.0 + 1e-9
            assert hyperbolic_sup(f, "P").value <= 5.0 + 1e-9

    def test_all_catalog_values_finite(self):
        cfg = SearchConfig(rays=64, radial_samples=32)
        for name in ("K", "L", "S1", "S2", "K2", "k", "l", "s", "q2"):
            rep = hyperbolic_sup(catalog_map(name), "S", cfg)
            assert np.isfinite(rep.value)

    def test_domain_error_names_point(self):
        bad = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("1.5*z"))
        with pytest.raises(DomainError):
            hyperbolic_sup(bad, "S", SearchConfig(rays=8, radial_samples=8))

    def test_dilatation_form_map(self):
        # shear-built twin of the harmonic Koebe map; the closure-based
        # h' picks up ~1e-8 rim noise from the quotient rule, well
        # inside the estimator tolerance
        from harmschwarz import ExprFunction as EF, shear
        sh = shear(catalog("k"), EF("z"), 0.0)
        rep = hyperbolic_sup(sh, "S")
        assert abs(rep.value - 9.5) <= 1e-6

    def test_sense_reversing_map_routes_through_conjugate(self):
        from harmschwarz import conjugate
        rep = hyperbolic_sup(conjugate(catalog("K")), "S")
        assert abs(rep.value - 9.5) <= 1e-6
        assert abs(rep.argmax) <= 1e-9

    def test_json_shape(self):
        rep = hyperbolic_sup(catalog("S2"), "S",
                             SearchConfig(rays=32, radial_samples=16))
        d = rep.to_json()
        assert list(d) == ["value", "argmax", "boundary", "samples", "op"]
        assert d["op"] == "S" and isinstance(d["argmax"], list)


# grid-only reports (default search flags, refine_iterations=0), recorded from
# the estimator before the local zoom replaced Nelder-Mead; the grid
# path must not change
GRID_REPORTS = {
    ("K", "S"): '{"value": 9.5, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("K", "P"): '{"value": 6.999998000000001, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("L", "S"): '{"value": 1.5, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("L", "P"): '{"value": 4.999998, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("S1", "S"): '{"value": 2.5, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("S1", "P"): '{"value": 2.9999979999999997, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("S2", "S"): '{"value": 4.0, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("S2", "P"): '{"value": 2.9999979999663173, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("K2", "S"): '{"value": 9.500000000051811, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "S"}',
    ("K2", "P"): '{"value": 6.999998000010561, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    # k re-recorded when the catalog spelled k as (0.5*(1+z)/(1-z))^2 - 0.25,
    # whose jet gives k' = (1+z)/(1-z)^3 without cancellation
    ("k", "S"): '{"value": 6.0, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("k", "P"): '{"value": 5.999998, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("l", "S"): '{"value": 0.0, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("l", "P"): '{"value": 3.9999979999999997, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("s", "S"): '{"value": 2.0, "argmax": [0.0, 0.0], "boundary": false, "samples": 32769, "op": "S"}',
    ("s", "P"): '{"value": 1.9999979999999995, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
    ("q2", "S"): '{"value": 6.000000002131131, "argmax": [6.12322787250277e-17, 0.999999], "boundary": true, "samples": 32769, "op": "S"}',
    ("q2", "P"): '{"value": 3.999997999954756, "argmax": [0.999999, 0.0], "boundary": true, "samples": 32769, "op": "P"}',
}


class TestZoomRefinement:
    @pytest.mark.parametrize("op", ["S", "P"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_refined_never_below_grid_best(self, name, op):
        f = catalog_map(name)
        grid = hyperbolic_sup(f, op, SearchConfig(refine_iterations=0))
        refined = hyperbolic_sup(f, op)
        assert refined.value >= grid.value
        assert refined.samples_evaluated > grid.samples_evaluated

    @pytest.mark.parametrize("key", sorted(GRID_REPORTS))
    def test_grid_only_reports_unchanged(self, key):
        name, op = key
        rep = hyperbolic_sup(catalog_map(name), op, SearchConfig(refine_iterations=0))
        assert json.dumps(rep.to_json()) == GRID_REPORTS[key]

    @pytest.mark.parametrize("op", ["S", "P"])
    def test_koebe_norm_survives_json(self, op):
        # the catalog k and the k its JSON loads differentiate one text
        k = catalog_map("k")
        rep = hyperbolic_sup(map_from_json(map_to_json(k)), op)
        assert rep.to_json() == hyperbolic_sup(k, op).to_json()
        if op == "S":
            assert rep.value == 6.0

    def test_repeat_runs_identical(self):
        for name, op in (("K2", "S"), ("q2", "P")):
            a = hyperbolic_sup(catalog_map(name), op).to_json()
            b = hyperbolic_sup(catalog_map(name), op).to_json()
            assert json.dumps(a) == json.dumps(b)

    def test_interior_maxima_exact_at_origin(self):
        for name, value in (("K", 9.5), ("S1", 2.5), ("S2", 4.0), ("s", 2.0)):
            rep = hyperbolic_sup(catalog_map(name), "S")
            assert rep.value == value
            assert rep.argmax == 0.0
            assert not rep.boundary_flag

    def test_zoom_seeds_lie_apart(self, monkeypatch):
        # at rmax = 1 - 1e-12 the outermost grid radii lie about 3e-13
        # apart: the seed filter keeps the five seeds more than 1e-12 apart
        seeds = []
        zoom = norms._zoom

        def spy(field, cfg, levels, z0, w0):
            seeds.append(z0)
            return zoom(field, cfg, levels, z0, w0)

        monkeypatch.setattr(norms, "_zoom", spy)
        hyperbolic_sup(catalog_map("L"), "P",
                       SearchConfig(rays=16, radial_samples=128, rmax=1 - 1e-12))
        (z0,) = seeds
        assert len(z0) == 5
        assert min(abs(a - b) for i, a in enumerate(z0) for b in z0[i + 1:]) > 1e-12

    def test_cli_import_leaves_scipy_out(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = ("import sys, harmschwarz.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


class TestTieSet:
    """A circular ridge resolves as _tie_break over every tied grid point.

    For h' = exp(z^k) and omega = 0, |P_f|(1-|z|^2) = k|z|^(k-1)(1-|z|^2)
    and the Becker quantity k|z|^k(1-|z|^2) are radial, so the grid
    points of one circle tie and |z| rounding (ulps) decides among them.
    """

    @staticmethod
    def _ridge_map(k):
        return HarmonicMap.from_dilatation(ExprFunction(f"exp(z^{k})"),
                                           ExprFunction("0"))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_norm_ridge(self, k):
        f, cfg = self._ridge_map(k), SearchConfig(refine_iterations=0)
        zs = norms._grid(cfg)
        w = norms._weighted_modulus(f, "P", zs)
        window = norms._TIE_REL * max(w.max(), 1.0)
        tied = [(float(w[i]), complex(zs[i]))
                for i in np.nonzero(w >= w.max() - window)[0]]
        assert len(tied) >= cfg.rays
        assert hyperbolic_sup(f, "P", cfg).argmax == norms._tie_break(tied)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_becker_ridge(self, k):
        f, cfg = self._ridge_map(k), SearchConfig()
        zs = norms._grid(cfg)
        margin = 1.0 - becker_lhs(f, zs)
        window = norms._TIE_REL * max(abs(margin.min()), 1.0)
        tied = [(float(-margin[i]), complex(zs[i]))
                for i in np.nonzero(margin <= margin.min() + window)[0]]
        assert len(tied) >= cfg.rays
        assert becker_check(f, cfg).witness == norms._tie_break(tied)

    @pytest.mark.parametrize("k", [2, 3])
    def test_probe_ridge(self, k):
        # omega = 0.5 z^k: the probe is radial, so its grid circles tie
        f = HarmonicMap.from_dilatation(ExprFunction("1"),
                                        ExprFunction(f"0.5*z^{k}"))
        cfg = SearchConfig()
        zs = norms._grid(cfg)
        w = norms._blocked(lambda z: norms._omega_probe(f, z), zs)
        window = norms._TIE_REL * max(w.max(), 1.0)
        tied = [(float(w[i]), complex(zs[i]))
                for i in np.nonzero(w >= w.max() - window)[0]]
        assert len(tied) >= cfg.rays
        value, argmax = omega_second_derivative_probe(f, cfg)
        assert value == w.max()
        assert argmax == norms._tie_break(tied)


class TestBecker:
    def test_affine_holds_with_margin_one(self):
        f = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.5*z"))
        rep = becker_check(f)
        assert rep.holds
        assert abs(rep.worst_margin - 1.0) <= 1e-15
        assert rep.witness == 0.0

    def test_analytic_koebe_fails(self):
        rep = becker_check(catalog_map("k"))
        assert not rep.holds
        # witness sits near the positive real axis where 2r(2+r) > 1
        assert abs(rep.witness.imag) < 1e-6
        r = abs(rep.witness)
        assert 2 * r * (2 + r) > 1.0
        lhs_half = float(becker_lhs(catalog_map("k"), 0.5))
        assert abs(lhs_half - 2.5) < 1e-12

    def test_identity_with_constant_dilatation_holds(self):
        f = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.3*z"))
        rep = becker_check(f)
        assert rep.holds and rep.worst_margin >= 0.0

    def test_reversing_map_matches_original(self):
        from harmschwarz import conjugate
        cfg = SearchConfig(rays=32, radial_samples=16)
        a = becker_check(catalog("L"), cfg)
        b = becker_check(conjugate(catalog("L")), cfg)
        assert a.holds == b.holds
        assert abs(a.worst_margin - b.worst_margin) <= 1e-12

    def test_constant_dilatation_reduces_to_analytic_quantity(self, rng):
        h = ExprFunction("z/(1-z)")
        f = HarmonicMap.from_parts(h, ExprFunction("0.4*(z/(1-z))"))
        for _ in range(6):
            z = complex(0.8 * (rng.random() - 0.5), 0.8 * (rng.random() - 0.5))
            hj = h.jet(z, 2)
            analytic = abs(z * 2.0 * hj.coeffs[2] / hj.coeffs[1]) * \
                (1 - abs(z) ** 2)
            assert abs(becker_lhs(f, z) - analytic) <= 1e-12

    # h' = exp(0.01/(p - z)) with p just outside the disk: the Becker
    # quantity is 1.63 at r = 0.99 and 4.99 at r = 0.999 on the ray through
    # p, but the grid points near that ray miss the narrow peak
    _NEAR_POLE = "exp(0.01/((1.0009246265409835+0.012283809824005645*i)-z))"

    def test_peak_between_grid_points(self):
        f = HarmonicMap.from_dilatation(ExprFunction(self._NEAR_POLE),
                                        ExprFunction("0"))
        ray = 1.0009246265409835 + 0.012283809824005645j
        assert float(becker_lhs(f, 0.999 * ray / abs(ray))) > 4.99

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
    @pytest.mark.parametrize("scale", ["0.01", "0.003"])
    def test_verdict_is_not_a_certificate(self, scale):
        # the grid verdict reads holds (worst margin 0.2587 for 0.01,
        # 0.7775969663049592 for 0.003); an interval bound over the disk
        # would refute it
        f = HarmonicMap.from_dilatation(
            ExprFunction(self._NEAR_POLE.replace("exp(0.01/", f"exp({scale}/")),
            ExprFunction("0"))
        assert becker_check(f).holds is False

    def test_json_shape(self):
        rep = becker_check(catalog_map("k"),
                           SearchConfig(rays=16, radial_samples=8))
        d = rep.to_json()
        assert list(d) == ["holds", "worst_margin", "witness"]


class TestFiniteNormCompare:
    def test_harmonic_koebe(self):
        cfg = SearchConfig(rays=64, radial_samples=32)
        s_f, s_h = finite_norm_compare(catalog("K"), cfg)
        assert np.isfinite(s_f.value) and np.isfinite(s_h.value)
        assert abs(s_f.value - 9.5) < 1e-4

    def test_half_plane(self):
        cfg = SearchConfig(rays=64, radial_samples=32)
        s_f, s_h = finite_norm_compare(catalog("L"), cfg)
        assert abs(s_f.value - 1.5) <= 1e-6
        assert np.isfinite(s_h.value)

    def test_analytic_strip_equal_norms(self):
        cfg = SearchConfig(rays=64, radial_samples=32)
        s_f, s_h = finite_norm_compare(catalog_map("s"), cfg)
        assert abs(s_f.value - 2.0) <= 1e-6
        assert abs(s_f.value - s_h.value) <= 1e-12


class TestBlockedSweep:
    def test_blocks_cover_the_grid_in_order(self):
        # the default grid is 8 full blocks and a last block of one point
        zs = norms._grid(SearchConfig())
        sizes = []

        def fn(z):
            sizes.append(z.size)
            return z.real

        assert np.array_equal(norms._blocked(fn, zs), zs.real)
        assert sizes == [norms._BLOCK] * 8 + [1]

    @pytest.mark.parametrize("name", ["K", "S2", "K2"])
    def test_blocked_values_match_one_array(self, name):
        # numpy computes a * tmp as tmp *= a once tmp is 256 KiB or more,
        # and its complex product is not bitwise commutative, so the S
        # values of a block can differ from the whole grid's by a few ulps
        f = catalog(name)
        zs = norms._grid(SearchConfig())
        for fn in (lambda z: norms._weighted_modulus(f, "S", z),
                   lambda z: norms._weighted_modulus(f, "P", z),
                   lambda z: becker_lhs(f, z)):
            whole = fn(zs)
            blocked = norms._blocked(fn, zs)
            assert np.all(np.abs(blocked - whole) <= 8 * np.spacing(whole))

    def test_memory_stays_bounded(self):
        # without blocks the jet and operator temporaries of the whole grid
        # are alive at once: 272 bytes per point for S, 192 for P and Becker
        cfg = SearchConfig(rays=1024, radial_samples=512)
        points = cfg.rays * cfg.radial_samples + 1
        K = catalog("K")
        for call in (lambda: hyperbolic_sup(K, "S", cfg),
                     lambda: hyperbolic_sup(K, "P", cfg),
                     lambda: becker_check(K, cfg),
                     lambda: omega_second_derivative_probe(K, cfg)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48 * points


class TestOmegaProbe:
    def test_bounded_on_catalog(self):
        cfg = SearchConfig(rays=64, radial_samples=64)
        for name in ("K", "S2", "K2"):
            value, argmax = omega_second_derivative_probe(catalog(name), cfg)
            assert np.isfinite(value)
            assert abs(argmax) < 1.0

    @pytest.mark.parametrize("omega, radius", [("1", 0.0), ("2*z", 0.5)])
    def test_not_sense_preserving_is_a_domain_error(self, omega, radius):
        # |omega| >= 1 on |z| >= radius: the probe checks univalence as
        # the norms and the Becker check do, naming the first grid point
        f = HarmonicMap.from_dilatation(ExprFunction("1"), ExprFunction(omega))
        with pytest.raises(DomainError) as info:
            omega_second_derivative_probe(f)
        zs = norms._grid(SearchConfig())
        assert info.value.at == zs[np.abs(zs) >= radius][0]
