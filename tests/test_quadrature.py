"""Per-segment adaptive quadrature: results, work and failure reports."""

import numpy as np
import pytest

from harmschwarz import (
    ExprFunction,
    HarmonicMap,
    catalog_map,
    integrate_segment,
    integrate_segments,
)
from harmschwarz.errors import QuadratureFailure


def render_grid(rays, circles, rmax=0.99):
    """The polar grid of the ``render`` command."""
    radii = rmax * (np.arange(circles) + 1) / circles
    angles = 2.0 * np.pi * np.arange(rays) / rays
    return (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)


def counting(values_fn):
    """Wrap values_fn; the returned list holds the number of points seen."""
    seen = [0]

    def counted(pts):
        seen[0] += np.size(pts)
        return values_fn(pts)
    return counted, seen


class TestIntegrateSegments:
    def test_batch_equals_scalar_bitwise(self):
        # each segment stops at its own level, so batching changes nothing
        fn = ExprFunction("(1+z)/(1-z)^4").value
        zs = render_grid(32, 16)
        batch = integrate_segments(fn, np.zeros_like(zs), zs)
        alone = np.array([integrate_segment(fn, 0.0, z) for z in zs])
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("name", ["K", "L", "S2"])
    def test_points_per_segment_on_render_grid(self, name):
        zs = render_grid(32, 16)
        counted, seen = counting(catalog_map(name).hp.value)
        integrate_segments(counted, np.zeros_like(zs), zs)
        assert seen[0] <= 64 * zs.size

    def test_easy_segment_costs_two_levels(self):
        # levels 0 and 1 (16 + 32 points) settle a smooth short segment;
        # it leaves the batch before the hard one refines further
        fn = ExprFunction("1/(1-z)^4").value
        hard, hard_seen = counting(fn)
        integrate_segments(hard, [0.0], [0.99])
        both, both_seen = counting(fn)
        integrate_segments(both, [0.0, 0.0], [0.99, 0.1])
        assert hard_seen[0] > 48
        assert both_seen[0] - hard_seen[0] == 48

    def test_shape_preserved(self):
        fn = ExprFunction("exp(z)").value
        zs = render_grid(4, 3).reshape(3, 4)
        out = integrate_segments(fn, np.zeros_like(zs), zs)
        assert out.shape == (3, 4)
        assert np.allclose(out, np.exp(zs) - 1.0, atol=1e-12)

    def test_pair_integrand_equals_two_scalar_calls(self):
        # a segment leaves the batch once both components have converged:
        # bitwise where both stop at the same level alone, else within tol
        f1, f2 = ExprFunction("exp(z)").value, ExprFunction("1/(1-z)^4").value
        z1 = np.array([0.1, 0.5j, -0.3 + 0.2j, 0.99, 0.9j, -0.95])
        pair = integrate_segments(lambda z: np.stack((f1(z), f2(z))),
                                  np.zeros_like(z1), z1)
        assert pair.shape == (2,) + z1.shape
        same = 0
        for i, z in enumerate(z1):
            levels = []
            for k, fn in enumerate((f1, f2)):
                counted, seen = counting(fn)
                alone = integrate_segment(counted, 0.0, z)
                levels.append(seen[0])
                assert abs(pair[k, i] - alone) <= 1e-8
            if levels[0] == levels[1]:
                same += 1
                alone = [integrate_segment(fn, 0.0, z) for fn in (f1, f2)]
                assert pair[:, i].tobytes() == np.array(alone).tobytes()
        assert 0 < same < len(z1)

    def test_failure_names_the_segment(self):
        fn = ExprFunction("1/(1-z)^4").value
        with pytest.raises(QuadratureFailure, match="0.999999"):
            integrate_segments(fn, [0, 0], [0.5, 0.999999], max_depth=2)


class TestDilatationFormRender:
    def test_koebe_render_matches_parts_form(self):
        # the default 64 x 64 render grid out to rmax = 0.99
        K = catalog_map("K")
        D = HarmonicMap.from_dilatation(K.hp, K.omega)
        zs = render_grid(64, 64)
        assert np.max(np.abs(D.values(zs) - K.values(zs))) <= 2e-8

    @pytest.mark.xfail(raises=QuadratureFailure, reason="ROADMAP item 17")
    def test_koebe_values_near_the_rim(self):
        # |h| is 5.3e6 at 0.995, where an absolute tol=1e-08 cannot be met
        # within depth 12
        D = HarmonicMap.from_dilatation(ExprFunction("(1+z)/(1-z)^4"),
                                        ExprFunction("z"))
        got = D.values([0.995])
        assert abs(got - catalog_map("K").values([0.995]))[0] <= 2e-8
