"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion PASS lines).  Everything is seeded and deterministic.
"""

import cmath
import math

import numpy as np

from harmschwarz import (
    AffineMap,
    ExprFunction,
    HarmonicMap,
    HarmonicMobius,
    MobiusMap,
    affine_compose,
    becker_check,
    becker_lhs,
    catalog,
    catalog_map,
    classical_schwarzian,
    conjugate,
    evaluate,
    hyperbolic_sup,
    jacobian,
    lemma1_schwarzian,
    mixed_laplacian_schwarzian,
    dbar_pre_schwarzian,
    partner_map,
    precompose,
    pre_schwarzian,
    schwarzian,
    schwarzian_via_jacobian_fd,
    shear,
    tamanoi_schwarzian,
)
from harmschwarz.cli import main as cli_main


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def sample_disk(rng, n, rmax):
    r = rmax * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


def test_criterion_01_half_plane_schwarzian_constancy():
    L = catalog("L")
    rng = np.random.default_rng(101)
    zs = sample_disk(rng, 1000, 0.98)
    w = np.abs(schwarzian(L, zs)) * ((1 - np.abs(zs)) * (1 + np.abs(zs))) ** 2
    worst = float(np.max(np.abs(w - 1.5)))
    assert worst <= 1e-9
    rep = hyperbolic_sup(L, "S")
    assert abs(rep.value - 1.5) <= 1e-6
    report(1, f"|S_L|(1-|z|^2)^2 = 1.5 at 1000 points (worst dev {worst:.2e}); "
              f"norm estimate {rep.value!r}")


def test_criterion_02_half_strip_norm():
    S1 = catalog("S1")
    rep = hyperbolic_sup(S1, "S")
    assert abs(rep.value - 2.5) <= 1e-6
    assert abs(rep.argmax.imag) <= 1e-9  # argmax on the real axis
    for r in (0.0, 0.3, -0.3, 0.7, -0.7):
        val = schwarzian(S1, r) * (1 - r * r) ** 2
        assert abs(val - 2.5) <= 1e-9
    report(2, f"||S_S1|| = {rep.value!r} at argmax {rep.argmax!r}; "
              f"spot checks at 0, ±0.3, ±0.7 all 2.5 ± 1e-9")


def test_criterion_03_strip_norm():
    rep = hyperbolic_sup(catalog("S2"), "S")
    assert abs(rep.value - 4.0) <= 1e-6
    assert abs(rep.argmax) <= 1e-9
    report(3, f"||S_S2|| = {rep.value!r} at argmax {rep.argmax!r}")


def test_criterion_04_harmonic_koebe_norm():
    K = catalog("K")
    rep = hyperbolic_sup(K, "S")
    assert abs(rep.value - 9.5) <= 1e-6
    assert abs(rep.argmax) <= 1e-9
    for r in (0.0, 0.35, -0.35, 0.8, -0.8):
        w = abs(schwarzian(K, r)) * (1 - r * r) ** 2
        assert abs(w - 9.5) <= 1e-8
    report(4, f"||S_K|| = {rep.value!r} at argmax {rep.argmax!r}; "
              f"|S_K(r)|(1-r^2)^2 = 9.5 at 5 real points")


def test_criterion_05_k2_boundary_behavior():
    K2 = catalog("K2")
    ws = []
    for r in (0.9, 0.99, 0.999):
        ws.append(abs(schwarzian(K2, r)) * ((1 - r) * (1 + r)) ** 2)
    assert abs(ws[2] - 9.5) <= 0.01 * 9.5
    assert ws[0] < ws[1] < ws[2]
    rep = hyperbolic_sup(K2, "S")
    assert rep.boundary_flag
    report(5, f"K2 weighted modulus {ws[0]:.6f} < {ws[1]:.6f} < {ws[2]:.6f} "
              f"-> 9.5; norm {rep.value!r} with boundary flag")


def test_criterion_06_classical_anchors():
    k, s = catalog("k"), catalog("s")
    assert abs(classical_schwarzian(k, 0.0) + 6.0) <= 1e-12
    assert abs(classical_schwarzian(s, 0.0) - 2.0) <= 1e-12
    nk = hyperbolic_sup(catalog_map("k"), "S")
    ns = hyperbolic_sup(catalog_map("s"), "S")
    assert abs(nk.value - 6.0) <= 1e-6
    assert abs(ns.value - 2.0) <= 1e-6
    report(6, f"Sk(0) = -6, Ss(0) = 2, ||Sk|| = {nk.value!r}, "
              f"||Ss|| = {ns.value!r}")


def test_criterion_07_half_plane_pre_schwarzian():
    L = catalog("L")
    assert abs(pre_schwarzian(L, 0.0) - 3.0) <= 1e-12
    rep = hyperbolic_sup(L, "P")
    assert rep.value >= 4.999
    assert rep.boundary_flag
    report(7, f"P_L(0) = 3; ||P_L|| estimate {rep.value!r} with boundary flag")


def test_criterion_08_oracle_quadrangle():
    rng = np.random.default_rng(808)
    worst = {"lemma1": 0.0, "jacobian-fd": 0.0, "tamanoi": 0.0}
    for name in ("K", "L", "S1", "S2", "K2"):
        f = catalog(name)
        for z in sample_disk(rng, 10, 0.45):
            z = complex(z)
            s = schwarzian(f, z)
            e1 = abs(s - lemma1_schwarzian(f, z))
            e2 = abs(s - schwarzian_via_jacobian_fd(f, z))
            e3 = abs(s - tamanoi_schwarzian(f, z))
            assert e1 <= 1e-10
            assert e2 <= 1e-5
            assert e3 <= 1e-6
            worst["lemma1"] = max(worst["lemma1"], e1)
            worst["jacobian-fd"] = max(worst["jacobian-fd"], e2)
            worst["tamanoi"] = max(worst["tamanoi"], e3)
    report(8, "oracle quadrangle on 10 points x 5 maps; worst errors "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(909)
    worst_affine = 0.0
    for name in ("K", "S2"):
        f = catalog(name)
        for _ in range(50):
            a = (0.5 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
            b = 0.6 * abs(a) * rng.random() * cmath.exp(2j * math.pi * rng.random())
            c = complex(rng.standard_normal(), rng.standard_normal())
            F = affine_compose(AffineMap(a, b, c), f)
            for z in sample_disk(rng, 2, 0.6):
                z = complex(z)
                err = max(abs(schwarzian(F, z) - schwarzian(f, z)),
                          abs(pre_schwarzian(F, z) - pre_schwarzian(f, z)))
                assert err <= 1e-10
                worst_affine = max(worst_affine, err)

    worst_chain = 0.0
    f = catalog("S2")
    for _ in range(50):
        a = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        rot = cmath.exp(2j * math.pi * rng.random())
        phi = ExprFunction(
            f"({rot.real!r}+{rot.imag!r}*i)*(({a.real!r}+{a.imag!r}*i)+z)"
            f"/(1+({a.real!r}+{-a.imag!r}*i)*z)")
        F = precompose(f, phi)
        for z in sample_disk(rng, 2, 0.6):
            z = complex(z)
            pj = phi.jet(z, 3)
            sphi = complex(6.0 * pj.coeffs[3] / pj.coeffs[1]
                           - 1.5 * (2.0 * pj.coeffs[2] / pj.coeffs[1]) ** 2)
            pphi = complex(2.0 * pj.coeffs[2] / pj.coeffs[1])
            w = complex(pj.value)
            err = max(
                abs(schwarzian(F, z)
                    - (schwarzian(f, w) * complex(pj.coeffs[1]) ** 2 + sphi)),
                abs(pre_schwarzian(F, z)
                    - (pre_schwarzian(f, w) * complex(pj.coeffs[1]) + pphi)))
            assert err <= 1e-9
            worst_chain = max(worst_chain, err)

    worst_conj = 0.0
    for name in ("K", "L", "S1", "S2", "K2"):
        f = catalog(name)
        g = conjugate(f)
        for z in sample_disk(rng, 20, 0.7):
            z = complex(z)
            err = max(abs(schwarzian(g, z) - schwarzian(f, z)),
                      abs(pre_schwarzian(g, z) - pre_schwarzian(f, z)))
            assert err <= 1e-12
            worst_conj = max(worst_conj, err)
    report(9, f"invariance: affine worst {worst_affine:.2e} (100 maps), "
              f"chain rule worst {worst_chain:.2e} (50 Moebius), "
              f"conjugation worst {worst_conj:.2e}")


def test_criterion_10_kernel_and_characterizations():
    rng = np.random.default_rng(1010)
    for _ in range(10):
        T = MobiusMap(1.0 + 0.5 * rng.standard_normal(),
                      0.3 * rng.standard_normal(),
                      0.3 * rng.standard_normal() + 0.2j * rng.standard_normal(),
                      1.0 + 0.4 * rng.standard_normal())
        alpha = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        f = HarmonicMobius(T, alpha).as_harmonic_map()
        for z in sample_disk(rng, 3, 0.5):
            assert abs(schwarzian(f, complex(z))) <= 1e-10

    from harmschwarz.expr import Const
    h = ExprFunction("z/(1-z)^2")
    f = HarmonicMap.from_parts(h, ExprFunction("(0.2+0.4*i)*(z/(1-z)^2)"),
                               omega=ExprFunction(Const(0.2 + 0.4j)))
    for z in sample_disk(rng, 5, 0.6):
        z = complex(z)
        assert dbar_pre_schwarzian(f, z) == 0.0
        assert mixed_laplacian_schwarzian(f, z) == 0.0

    K = catalog("K")
    got = mixed_laplacian_schwarzian(K, 0.0)
    D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    step = 1e-3
    off = np.arange(-2, 3)
    fd = ((D2 @ schwarzian(K, step * off))
          + (D2 @ schwarzian(K, 1j * step * off))) / (4 * step * step)
    assert abs(got - 3.0) <= 1e-5
    assert abs(got - fd) <= 1e-5
    report(10, f"kernel S = 0 for 10 harmonic Moebius maps; constant "
               f"dilatation gives dbar P = 0 and mixed S = 0; mixed "
               f"derivative of K at 0 = {complex(got)} vs FD {complex(fd)}")


def test_criterion_11_equal_pre_schwarzian_partners():
    rng = np.random.default_rng(1111)
    f = catalog("S2")
    pts = [complex(z) for z in sample_disk(rng, 5, 0.55)]
    worst_p, worst_spread = 0.0, 0.0
    for _ in range(10):
        a = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        mu = cmath.exp(2j * math.pi * rng.random())
        lam = (0.5 + rng.random()) * cmath.exp(2j * math.pi * rng.random())
        F = partner_map(f, a, mu, lam)
        errs = [abs(pre_schwarzian(F, z) - pre_schwarzian(f, z)) for z in pts]
        ratios = np.array([jacobian(F, z) / jacobian(f, z) for z in pts])
        spread = float((ratios.max() - ratios.min()) / abs(ratios.mean()))
        assert max(errs) <= 1e-9
        assert spread <= 1e-7
        worst_p = max(worst_p, max(errs))
        worst_spread = max(worst_spread, spread)
    report(11, f"10 partner maps of S2: P equality worst {worst_p:.2e}, "
               f"Jacobian ratio spread worst {worst_spread:.2e}")


def test_criterion_12_becker_criterion():
    affine = HarmonicMap.from_parts(ExprFunction("z"), ExprFunction("0.5*z"))
    rep = becker_check(affine)
    assert rep.holds and abs(rep.worst_margin - 1.0) <= 1e-15

    koebe = catalog_map("k")
    repk = becker_check(koebe)
    assert not repk.holds
    r = abs(repk.witness)
    assert abs(repk.witness.imag) <= 1e-6
    assert 2 * r * (2 + r) > 1.0

    rng = np.random.default_rng(1212)
    h = ExprFunction("z/(1-z)")
    const = HarmonicMap.from_parts(h, ExprFunction("0.4*(z/(1-z))"))
    worst = 0.0
    for z in sample_disk(rng, 10, 0.8):
        z = complex(z)
        hj = h.jet(z, 2)
        analytic = abs(z * 2.0 * hj.coeffs[2] / hj.coeffs[1]) * \
            (1 - abs(z)) * (1 + abs(z))
        err = abs(becker_lhs(const, z) - analytic)
        assert err <= 1e-12
        worst = max(worst, err)
    report(12, f"Becker: affine margin 1 exactly; Koebe fails at witness "
               f"{repk.witness!r} (2r(2+r) = {2*r*(2+r):.3f} > 1); constant "
               f"dilatation matches the analytic quantity (worst {worst:.1e})")


def test_criterion_13_shear_round_trips():
    rng = np.random.default_rng(1313)
    pairs = [
        (shear(catalog("k"), ExprFunction("z"), 0.0), catalog("K")),
        (shear(catalog("l"), ExprFunction("-z"), math.pi / 2), catalog("L")),
    ]
    worst_jet, worst_val = 0.0, 0.0
    for built, reference in pairs:
        for z in sample_disk(rng, 10, 0.6):
            z = complex(z)
            for part in ("hp", "gp"):
                ja = getattr(built, part).jet(z, 2)
                jb = getattr(reference, part).jet(z, 2)
                scale = max(1.0, float(np.max(np.abs(jb.coeffs))))
                err = float(np.max(np.abs(ja.coeffs - jb.coeffs))) / scale
                assert err <= 1e-10
                worst_jet = max(worst_jet, err)
        for z in sample_disk(rng, 3, 0.6):
            z = complex(z)
            err = abs(evaluate(built, z) - evaluate(reference, z))
            assert err <= 1e-7
            worst_val = max(worst_val, err)
    report(13, f"shear(k, z, 0) = K and shear(l, -z, pi/2) = L: jet "
               f"agreement worst {worst_jet:.2e}, value agreement worst "
               f"{worst_val:.2e}")


def test_criterion_14_render_ranges(capsys):
    code = cli_main(["render", "--map", "L", "--rays", "64", "--circles", "64"])
    out = capsys.readouterr().out
    assert code == 0
    worst_re = min(float(line.split(",")[2])
                   for line in out.strip().split("\n")[1:])
    assert worst_re > -0.5 - 1e-6

    code = cli_main(["render", "--map", "S2", "--rays", "64", "--circles", "64"])
    out = capsys.readouterr().out
    assert code == 0
    worst_im = max(abs(float(line.split(",")[3]))
                   for line in out.strip().split("\n")[1:])
    assert worst_im < math.pi / 4 + 1e-6
    report(14, f"render ranges: L has re f > -1/2 (min re {worst_re:.6f}); "
               f"S2 has |im f| < pi/4 (max |im| {worst_im:.6f})")
