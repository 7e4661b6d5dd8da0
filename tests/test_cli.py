"""CLI contract: commands, output schemas, exit codes, determinism."""

import json
import math

from harmschwarz import catalog, evaluate, map_from_json
from harmschwarz.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_half_plane_schwarzian(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "L",
                               "--op", "schw", "--at", "0,0")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"z": [0.0, 0.0], "op": "schw", "value": [-1.5, 0.0]}

    def test_affine_pre_schwarzian(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--h", "z", "--g", "0.5*z",
                               "--op", "pre", "--at", "0.3,0.1")
        assert code == 0
        assert json.loads(out)["value"] == [0.0, 0.0]

    def test_koebe_mixed_derivative(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "K",
                               "--op", "lap", "--at", "0,0")
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(value[0] - 3.0) < 1e-12 and abs(value[1]) < 1e-12

    def test_multiple_points_stream(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "K", "--op", "jac",
                               "--at", "0,0", "--at", "0.25,0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["value"][0] == 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--map", "L", "--op", "schw",
                               "--at", "0,0", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re_z,im_z,op,re_value,im_value"
        assert lines[1] == "0.0,0.0,schw,-1.5,0.0"

    def test_cdo_requires_q_at_dilatation_zero(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--map", "S2", "--op", "cdo",
                               "--at", "0,0")
        assert code == 3
        assert "q" in json.loads(err)["message"]
        code, out, _ = run_cli(capsys, "eval", "--map", "S2", "--op", "cdo",
                               "--at", "0,0", "--q", "z")
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 4.0) < 1e-12


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--h", "z^(1/2", "--g", "0",
                               "--op", "pre", "--at", "0,0")
        assert code == 2
        rec = json.loads(err)
        assert rec["code"] == 2 and "offset 6" in rec["message"]

    def test_domain_error_is_3_and_names_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--h", "1/z", "--g", "0",
                               "--op", "pre", "--at", "0,0")
        assert code == 3
        assert json.loads(err)["at"] == "0.0,0.0"

    def test_point_outside_disk_is_3(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--map", "K", "--op", "schw",
                             "--at", "2,0")
        assert code == 3

    def test_usage_error_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--map", "K", "--h", "z",
                             "--g", "0", "--op", "schw", "--at", "0,0")
        assert code == 1
        code, _, _ = run_cli(capsys, "eval", "--map", "K", "--op", "schw",
                             "--at", "nonsense")
        assert code == 1

    def test_negative_refine_iterations_is_1(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--map", "K", "--op", "S",
                                 "--refine-iterations", "-3")
        assert code == 1
        assert out == ""
        assert "refine iterations" in json.loads(err)["message"]

    def test_unknown_catalog_name_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--map", "Q7", "--op", "schw",
                             "--at", "0,0")
        assert code == 1

    def test_numerical_failure_is_4(self, capsys):
        # pole of h' on the integration path: quadrature cannot converge
        code, _, err = run_cli(capsys, "render", "--h", "1/(1-2*z)",
                               "--omega", "0", "--rays", "4", "--circles", "4",
                               "--rmax", "0.9")
        assert code == 4
        assert json.loads(err)["code"] == 4


class TestNormAndBecker:
    def test_strip_norm(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--map", "S1", "--op", "S")
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["value"] - 2.5) <= 1e-6
        assert abs(rep["argmax"][1]) <= 1e-9
        assert list(rep) == ["value", "argmax", "boundary", "samples", "op"]

    def test_k2_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--map", "K2", "--op", "S")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] >= 9.45 and rep["boundary"]

    def test_determinism(self, capsys):
        args = ("norm", "--map", "S2", "--op", "S",
                "--rays", "64", "--radial", "32")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_becker_affine(self, capsys):
        code, out, _ = run_cli(capsys, "becker", "--h", "z", "--g", "0.5*z",
                               "--rays", "32", "--radial", "16")
        assert code == 0
        rep = json.loads(out)
        assert rep["holds"] and rep["worst_margin"] == 1.0
        assert list(rep) == ["holds", "worst_margin", "witness"]


class TestShear:
    def test_horizontal_shear_of_koebe_matches_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "shear", "--phi", "z/(1-z)^2",
                               "--omega", "z", "--theta", "0")
        assert code == 0
        spec = json.loads(out)
        assert spec["form"] == "dilatation" and spec["omega"] == "z"
        loaded = map_from_json(spec)
        K = catalog("K")
        for z in (0.3, 0.2 + 0.25j):
            assert abs(evaluate(loaded, z) - evaluate(K, z)) < 1e-7

    def test_vertical_shear_matches_half_plane(self, capsys):
        code, out, _ = run_cli(capsys, "shear", "--phi", "z/(1-z)",
                               "--omega", "-z",
                               "--theta", "1.5707963267948966")
        assert code == 0
        loaded = map_from_json(json.loads(out))
        L = catalog("L")
        for z in (0.4, -0.2 + 0.3j):
            assert abs(evaluate(loaded, z) - evaluate(L, z)) < 1e-7

    def test_trivial_shear_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "shear", "--phi", "z",
                               "--omega", "z", "--theta", "0")
        assert code == 0
        loaded = map_from_json(json.loads(out))
        # h' = 1/(1-z)
        assert abs(loaded.hp.value(0.5) - 2.0) < 1e-12


class TestRender:
    def test_identity_render_exact(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--h", "z", "--g", "0",
                               "--rays", "8", "--circles", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re_z,im_z,re_f,im_f"
        for line in lines[1:]:
            re_z, im_z, re_f, im_f = map(float, line.split(","))
            assert re_z == re_f and im_z == im_f

    def test_half_plane_range(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--map", "L",
                               "--rays", "32", "--circles", "32")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[2]) > -0.5 - 1e-6

    def test_strip_range(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--map", "S2",
                               "--rays", "32", "--circles", "32")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert abs(float(line.split(",")[3])) < math.pi / 4 + 1e-6


class TestCatalogAndVerify:
    def test_catalog_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        names = json.loads(out)["names"]
        assert set(names) >= {"K", "L", "S1", "S2", "K2", "k", "l", "s", "q2"}

    def test_catalog_emits_map_spec(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "K")
        assert code == 0
        spec = json.loads(out)
        loaded = map_from_json(spec)
        assert abs(evaluate(loaded, 0.3) - evaluate(catalog("K"), 0.3)) < 1e-10

    def test_unknown_suite_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 1

    def test_becker_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "becker")
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == 0 and rep["passed"] >= 2

    def test_norms_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "norms")
        assert code == 0
        assert json.loads(out)["failed"] == 0
