"""CLI contract: commands, output schemas, exit codes, determinism."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import bench_workloads, require_dispatch

from harmschwarz import (
    ExprFunction,
    catalog,
    catalog_map,
    errors,
    evaluate,
    map_from_json,
    map_to_json,
    norms,
    shear,
)
from harmschwarz.cli import _UsageError, _build_parsers, _parse_args, main
from harmschwarz.maps import CATALOG_NAMES, HarmonicMap


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


    @pytest.mark.parametrize("argv, message, at", [
        # omega = z vanishes at the second point only
        (("--at", "0.1,0", "--at", "0,0"),
         "omega(z) = 0: supply q with q^2 = omega", "0.0,0.0"),
        (("--q", "z", "--at", "0.3,0.1"),
         "q^2 does not match the dilatation at z", "0.3,0.1"),
    ])
    def test_cdo_errors_name_their_point(self, capsys, argv, message, at):
        code, out, err = run_cli(capsys, "eval", "--map", "K", "--op", "cdo", *argv)
        assert code == 3 and out == ""
        assert json.loads(err) == {"code": 3, "message": message, "at": at}

    @pytest.mark.parametrize("argv, message, at", [
        # q^2 = 100 does not match omega = 0.1 at the first point
        (("--q", "1/z", "--at", "0.1,0", "--at", "0,0"),
         "q^2 does not match the dilatation at z", "0.1,0.0"),
        (("--q", "1/z", "--at", "0,0"),
         "jet division by zero constant term [ast /div]", "0.0,0.0"),
        (("--q", "sqrt(z)", "--at", "0,0"),
         "sqrt of jet with zero constant term [ast /sqrt]", "0.0,0.0"),
    ], ids=["mismatch-first", "division", "branch-point"])
    def test_tape_errors_of_q_name_their_point(self, capsys, argv, message, at):
        code, out, err = run_cli(capsys, "eval", "--map", "K", "--op", "cdo", *argv)
        assert code == 3 and out == ""
        assert json.loads(err) == {"code": 3, "message": message, "at": at}

    def test_cdo_errors_name_the_first_point_of_a_batch(self):
        from harmschwarz.errors import DilatationZeroNeedsQ, QMismatch
        from harmschwarz.operators import cdo_schwarzian

        f = catalog_map("K")
        with pytest.raises(DilatationZeroNeedsQ) as err:
            cdo_schwarzian(f, np.array([0.1, 0.2j, 0.0, 0.3]))
        assert err.value.at == 0
        # q^2 = omega through order 2 at 0.3 only
        with pytest.raises(QMismatch) as err:
            cdo_schwarzian(f, np.array([0.3, 0.5, 0.4]), q=ExprFunction("sqrt(z)+(z-0.3)^3"))
        assert err.value.at == 0.5


class TestExitCodes:
    def test_missing_command_is_1(self, capsys):
        # the top-level parser reads an argv whose first token names no command
        code, out, err = run_cli(capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "code": 1, "message": "the following arguments are required: command"}

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

    @pytest.mark.parametrize("argv, message, at", [
        (("eval", "--h", "z", "--omega", "0", "--op", "pre", "--at", "0.1,0",
          "--at", "0,0"), "h' vanishes at 0j", "0.0,0.0"),
        (("norm", "--h", "z-0.5", "--omega", "0", "--op", "S", "--rays", "8",
          "--radial", "8", "--rmax", "0.5"), "h' vanishes at (0.5+0j)", "0.5,0.0"),
    ], ids=["eval", "norm"])
    def test_vanishing_h_prime_names_its_point(self, capsys, argv, message, at):
        # an explicit omega: with a quotient omega = g'/h' the division fails first
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err) == {"code": 3, "message": message, "at": at}

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

    @pytest.mark.parametrize("argv", [
        ("norm", "--h", "1/(z-0.5)", "--g", "0", "--op", "S"),
        ("becker", "--h", "1/(z-0.5)", "--g", "0"),
    ])
    def test_grid_division_error_names_the_pole(self, capsys, argv):
        # the 8x8 grid of radius 0.5 holds the pole 0.5 but not as its first point
        rec = _single_error(*run_cli(capsys, *argv, "--rays", "8", "--radial",
                                     "8", "--rmax", "0.5"), 3)
        assert rec["at"] == "0.5,0.0"

    @pytest.mark.parametrize("argv", [
        ("eval", "--h", "log(z)", "--g", "0", "--op", "pre", "--at", "0,0"),
        ("eval", "--h", "z", "--g", "2*3*sqrt(z)*4", "--op", "jac", "--at", "0,0"),
        ("shear", "--phi", "log(z)", "--omega", "z"),
    ])
    def test_branch_point_error_names_the_point(self, capsys, argv):
        rec = _single_error(*run_cli(capsys, *argv), 3)
        assert "of jet with zero constant term" in rec["message"]
        assert rec["at"] == "0.0,0.0"

    def test_lower_order_failure_is_reported_first(self, capsys):
        # lap needs the order-3 jet of h', which overflows at 0.688, where
        # g' has a pole; h' through order 2 and g' are evaluated first
        rec = _single_error(*run_cli(capsys, "eval", "--h", "exp(1000*z)",
                                     "--g", "1e-3/(z-0.688)", "--op", "lap",
                                     "--at", "0.688,0"), 3)
        assert rec["at"] == "0.688,0.0"

    @pytest.mark.parametrize("argv", [
        ("eval", "--map", "K", "--op", "pre", "--at", "-0.3,0.1"),
        ("shear", "--phi", "z", "--omega", "0.5*z", "--theta", "-1e-3"),
        ("norm", "--map", "K", "--op", "S", "--rmax", "-1e-3"),
    ])
    def test_value_starting_with_dash(self, capsys, argv):
        spaced = run_cli(capsys, *argv)
        assert "expected one argument" not in spaced[2]
        assert spaced == run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")

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

    @pytest.mark.parametrize("phi, omega, theta", [
        ("z/(1-z)^2", "z", 0.0),
        ("z/(1-z)", "-z", 1.5707963267948966),
        ("0.5*log((1+z)/(1-z))", "z^2", 0.3),
        ("exp(z)+sqrt(1+z)", "0.2*i*z", -2.5),
    ])
    def test_library_shear_serializes_as_cli_output(self, capsys, phi, omega,
                                                     theta):
        code, out, _ = run_cli(capsys, "shear", "--phi", phi,
                               "--omega", omega, "--theta", repr(theta))
        assert code == 0
        spec = json.loads(out)
        lib = shear(ExprFunction(phi), ExprFunction(omega), theta)
        d = map_to_json(lib)
        for key in ("form", "h", "omega", "sense"):
            assert d[key] == spec[key]
        loaded = map_from_json(spec)
        for z in (0.0, 0.3 - 0.2j, -0.45 + 0.1j):
            for a, b in zip(lib.derivative_data(z), loaded.derivative_data(z)):
                assert np.array_equal(a.coeffs, b.coeffs)

    def test_constant_power_term_differentiates_at_the_origin(self, capsys):
        # d/dz z^0 is 0 at the origin too
        code, out, _ = run_cli(capsys, "shear", "--phi", "z^0+z",
                               "--omega", "0.5*z")
        assert code == 0
        spec = json.loads(out)
        assert spec["h"] == "d(z^0.0+z)/(1.0-1.0*(0.5*z))"
        hpj, _ = map_from_json(spec).derivative_data(0.0)
        assert hpj.coeffs[0] == 1.0

    def test_vanishing_denominator_is_3(self, capsys):
        rec = _single_error(*run_cli(capsys, "shear", "--phi", "z",
                                     "--omega", "1"), 3)
        assert "division by zero constant term [ast /div]" in rec["message"]
        assert rec["at"] == "0.0,0.0"


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

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_printed_catalog_map_reloads_bitwise(self, capsys, name):
        code, out, _ = run_cli(capsys, "catalog", name)
        assert code == 0
        loaded, f = map_from_json(json.loads(out)), catalog_map(name)
        for z in (0.3 - 0.2j, np.array([0.0, -0.6 + 0.1j, 0.05j, 0.9])):
            for got, want in zip(loaded.derivative_data(z, 3, 3),
                                 f.derivative_data(z, 3, 3)):
                assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("name", ["K", "L", "S1", "S2", "K2"])
    def test_printed_hp_and_omega_give_the_catalog_numbers(self, capsys, name):
        # P_f and S_f read only h' and omega: the dilatation-form map of
        # the printed texts reproduces norm and becker byte for byte
        _, out, _ = run_cli(capsys, "catalog", name)
        spec = json.loads(out)
        grid = ("--rays", "16", "--radial", "16")
        for cmd in (("norm", "--op", "S"), ("norm", "--op", "P"), ("becker",)):
            want = run_cli(capsys, *cmd, "--map", name, *grid)
            got = run_cli(capsys, *cmd, "--h", spec["hp"],
                          "--omega", spec["omega"], *grid)
            assert got == want and want[0] == 0

    def test_unknown_suite_exit_1(self, capsys):
        rec = _single_error(*run_cli(capsys, "verify", "nonsense"), 1)
        assert rec["message"].startswith("argument suite: invalid choice: 'nonsense'")

    def test_becker_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "becker")
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == 0 and rep["passed"] >= 2

    def test_norms_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "norms")
        assert code == 0
        assert json.loads(out)["failed"] == 0


_SNAPSHOT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                         "cli_snapshot.py")


@pytest.fixture(scope="module")
def snapshot_records():
    """The records of the CLI byte snapshot, run in this process."""
    spec = importlib.util.spec_from_file_location("cli_snapshot", _SNAPSHOT)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return [snapshot.run(argv, main) for argv in snapshot.commands()]


def test_snapshot_commands_keep_the_exit_code_contract(snapshot_records):
    # every command of the CLI byte snapshot exits 0-4; an error writes
    # exactly one JSON record {"code", "message", "at"?} and nothing else
    for rec in snapshot_records:
        argv = rec["argv"]
        assert rec["exit"] in range(5), argv
        if rec["exit"] == 0:
            assert rec["stderr"] == "", argv
            continue
        assert rec["stderr"].count("\n") == 1, argv
        err = json.loads(rec["stderr"])
        assert err["code"] == rec["exit"], argv
        assert set(err) <= {"code", "message", "at"}, argv
        # a message that names a point carries it in "at", and so does
        # every domain error of the set
        assert " at " not in err["message"] or "at" in err, argv
        assert err["code"] != 3 or "at" in err, argv


_CHECKED_IN = os.path.join(os.path.dirname(__file__), "cli_snapshot.jsonl")
_CHECKED_IN_NUMPY = "2.4.6"  # the numpy build that wrote _CHECKED_IN


def test_snapshot_bytes_are_the_checked_in_ones(snapshot_records):
    # the bytes are fixed for one numpy build at AVX2 dispatch or above
    require_dispatch("X86_V3")
    if np.__version__ != _CHECKED_IN_NUMPY:
        pytest.skip(f"the snapshot was written by numpy {_CHECKED_IN_NUMPY}, "
                    f"this is numpy {np.__version__}")
    with open(_CHECKED_IN) as fh:
        want = fh.read().splitlines()
    got = [json.dumps(rec) for rec in snapshot_records]
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        assert line == expected, json.loads(expected)["argv"]


def test_snapshot_bytes_are_the_same_at_avx2_dispatch(snapshot_records):
    # numpy picks its SIMD loops per process; the snapshot run with the
    # AVX-512 loops disabled prints the bytes of this process
    cpu = require_dispatch("X86_V4")
    off = " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                   if f in cpu.__cpu_dispatch__)
    out = subprocess.run([sys.executable, _SNAPSHOT], capture_output=True,
                         text=True, check=True, timeout=300,
                         env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=off)).stdout
    assert out.splitlines() == [json.dumps(rec) for rec in snapshot_records]


def _single_error(code, out, err, want_code):
    assert code == want_code
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["code"] == want_code
    return rec


class TestNonFiniteNumbers:
    def test_nan_point_is_usage_error(self, capsys):
        rec = _single_error(*run_cli(capsys, "eval", "--map", "K", "--op", "schw",
                                     "--at", "nan,0"), 1)
        assert "not finite" in rec["message"]

    def test_inf_point_is_usage_error(self, capsys):
        rec = _single_error(*run_cli(capsys, "eval", "--map", "K", "--op", "schw",
                                     "--at", "inf,0"), 1)
        assert "not finite" in rec["message"]

    def test_overflowing_theta_is_usage_error(self, capsys):
        rec = _single_error(*run_cli(capsys, "shear", "--phi", "z", "--omega", "z",
                                     "--theta", "1e308"), 1)
        assert "theta" in rec["message"]

    def test_overflow_writes_only_the_error_record(self):
        # numpy warns on the overflow in exp and the jets raise NonFinite;
        # a subprocess, since pytest would capture the warnings itself
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "harmschwarz.cli", "eval", "--h",
             "exp(z*1000)", "--g", "0", "--op", "pre", "--at", "0.9,0"],
            env=env, capture_output=True, text=True)
        rec = _single_error(proc.returncode, proc.stdout, proc.stderr, 4)
        assert "non-finite" in rec["message"]


    def test_non_finite_node_is_4(self, capsys):
        # exp(900) overflows at its own node; 1/inf = 0 would make J = 0
        rec = _single_error(*run_cli(capsys, "eval", "--h", "1/exp(1000*z)",
                                     "--omega", "0", "--op", "jac", "--at",
                                     "0.9,0"), 4)
        assert rec["message"] == "non-finite jet coefficient"
        assert rec["at"] == "0.9,0.0"

    def test_non_finite_coefficient_names_its_point(self, capsys):
        # 0.1^320 is subnormal, not 0, so 1/0.1^320 overflows in the division
        rec = _single_error(*run_cli(capsys, "eval", "--h", "z+z^-320", "--g",
                                     "0", "--op", "jac", "--at", "0.1,0"), 4)
        assert rec["message"] == "non-finite jet coefficient"
        assert rec["at"] == "0.1,0.0"

    def test_overflowing_negative_power_is_4(self, capsys):
        # 0.1^512 underflows to 0, so 1/0.1^512 is an overflow, not a
        # division by zero
        rec = _single_error(*run_cli(capsys, "eval", "--h", "z+z^-512", "--g",
                                     "0", "--op", "jac", "--at", "0.1,0"), 4)
        assert rec["message"] == "jet power -512 overflows at (0.1+0j)"
        assert rec["at"] == "0.1,0.0"

    @pytest.mark.parametrize("argv, message, at", [
        (("--h", "1/exp(1000*z)", "--g", "0", "--op", "pre", "--at", "0.9,0"),
         "non-finite jet coefficient", "0.9,0.0"),
        (("--h", "z", "--omega", "1/exp(1000*z)", "--op", "schw", "--at", "0.9,0"),
         "non-finite jet coefficient", "0.9,0.0"),
        (("--h", "1e999*z", "--g", "0", "--op", "pre", "--at", "0.1,0"),
         "non-finite jet coefficient", "0.1,0.0"),
        (("--h", "z^-400", "--g", "0", "--op", "pre", "--at", "0.01,0"),
         "jet power -400 overflows at (0.01+0j)", "0.01,0.0"),
        (("--h", "exp(1000*z)", "--omega", "0", "--op", "pre", "--at", "0.9,0"),
         "non-finite jet coefficient", "0.9,0.0"),
    ], ids=["exp-in-h", "exp-in-omega", "constant", "negative-power", "exp-in-h-prime"])
    def test_one_point_failures_name_their_point(self, capsys, argv, message, at):
        # at one point the jets run on Python complex numbers, every slot
        # checked: the errors are those of the grid sweeps above
        rec = _single_error(*run_cli(capsys, "eval", *argv), 4)
        assert rec["message"] == message
        assert rec["at"] == at

    @pytest.mark.parametrize("h, fine, at", [("exp(700*z)", "0.2,0", "0.5,0"),
                                             ("z+z^-300", "0.5,0", "0.1,0")])
    def test_overflowing_eval_value_is_4(self, capsys, h, fine, at):
        # the jets are finite, |h'|^2 is not; the record names that point
        rec = _single_error(*run_cli(capsys, "eval", "--h", h, "--g", "0",
                                     "--op", "jac", "--at", fine, "--at",
                                     at), 4)
        assert rec["message"].startswith("non-finite jac value at ")
        assert rec["at"] == at + ".0"

    @staticmethod
    def _grid_point(i):
        """Point ``i`` of the default search grid, built in this process,
        as the CLI prints it: its last bit depends on numpy's SIMD level."""
        z = complex(norms._grid(norms.SearchConfig())[i])
        return f"{z.real!r},{z.imag!r}"

    # ray 0 of radii 15 and 16 (256 rays), and the origin
    @pytest.mark.parametrize("argv, at", [
        (("norm", "--h", "1/exp(1000*z)", "--g", "0", "--op", "S"), _grid_point(3585)),
        (("becker", "--h", "1/exp(1000*z)", "--g", "0"), _grid_point(3841)),
        # omega reads 1/inf = 0 where the tape does not check exp
        (("norm", "--h", "z", "--omega", "1/exp(1000*z)", "--op", "S"),
         _grid_point(3841)),
        # a non-finite constant raises no numpy flag
        (("norm", "--h", "1e999*z", "--g", "0", "--op", "S"), _grid_point(0)),
    ])
    def test_grid_sweep_overflow_names_its_first_point(self, capsys, argv, at):
        # the sweeps evaluate jets under numpy's floating-point trap; an
        # overflow is reported as the slot-by-slot checked run reports it
        rec = _single_error(*run_cli(capsys, *argv), 4)
        assert rec["message"] == "non-finite jet coefficient"
        assert rec["at"] == at

    def test_quotient_overflow_names_its_point(self, capsys):
        # omega = g'/h' overflows in the jet division, outside any tape
        rec = _single_error(*run_cli(capsys, "norm", "--h", "1e-300*z", "--g",
                                     "1e10*z^2", "--op", "S", "--rays", "8",
                                     "--radial", "8"), 4)
        assert rec == {"code": 4, "message": "non-finite jet coefficient",
                       "at": "0.0,0.0"}

    @pytest.mark.parametrize("argv, message, at", [
        (("norm", "--h", "z+1e-300", "--omega", "0", "--op", "S"),
         "non-finite weighted modulus at 0j", "0.0,0.0"),
        (("becker", "--h", "z-0.5+1e-310", "--omega", "0", "--rmax", "0.5"),
         "non-finite Becker quantity at (0.5+0j)", "0.5,0.0"),
    ], ids=["norm", "becker"])
    def test_non_finite_grid_value_names_its_point(self, capsys, argv, message, at):
        # the jets are finite, the field value is not: h' is 1e-300 at 0
        # and 1e-310 at 0.5, on the outer circle of the grid of radius 0.5
        rec = _single_error(*run_cli(capsys, *argv), 4)
        assert rec["message"] == message
        assert rec["at"] == at


class TestMapStyles:
    @pytest.mark.parametrize("flag", ["--h", "--g", "--omega"])
    def test_map_with_an_empty_expression_is_usage_error(self, capsys, flag):
        # an empty text still names a second map style
        rec = _single_error(*run_cli(capsys, "eval", "--map", "K", flag, "",
                                     "--op", "schw", "--at", "0.1,0"), 1)
        assert rec["message"] == "--map cannot be combined with --h/--g/--omega"

    def test_empty_q_is_parse_error(self, capsys):
        # an empty --q is an unparsable q, not a missing one
        rec = _single_error(*run_cli(capsys, "eval", "--map", "K", "--op", "cdo",
                                     "--q", "", "--at", "0.1,0"), 2)
        assert rec["message"] == "empty expression (offset 0)"


class TestOversizedGrid:
    """A grid too large to allocate is one usage-error record; the
    allocation failure is simulated, nothing large is allocated."""

    @staticmethod
    def _out_of_memory(*args, **kwargs):
        raise MemoryError

    @pytest.mark.parametrize("argv", [
        ("norm", "--map", "K", "--op", "S", "--rays", "1000000",
         "--radial", "1000000"),
        ("becker", "--map", "K", "--rays", "1000000", "--radial", "1000000"),
    ], ids=["norm", "becker"])
    def test_norm_and_becker(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(norms, "_grid", self._out_of_memory)
        rec = _single_error(*run_cli(capsys, *argv), 1)
        assert "out of memory" in rec["message"]

    def test_render(self, capsys, monkeypatch):
        monkeypatch.setattr(HarmonicMap, "values", self._out_of_memory)
        rec = _single_error(*run_cli(capsys, "render", "--map", "K",
                                     "--rays", "8", "--circles", "4"), 1)
        assert "out of memory" in rec["message"]


# the documented exit code of every error class; a new class must be
# added here
_EXIT_CODES = {
    "ToolkitError": 4,
    "DivisionByZeroConstantTerm": 3,
    "BranchPointAtCenter": 3,
    "NonFinite": 4,
    "IllConditioned": 4,
    "ExprSyntaxError": 2,
    "UnknownIdentifier": 2,
    "UnknownCatalogName": 1,
    "DomainError": 3,
    "ParameterOutOfRange": 1,
    "CriticalPoint": 3,
    "DilatationZeroNeedsQ": 3,
    "QMismatch": 3,
    "StencilOutsideDomain": 3,
    "QuadratureFailure": 4,
}


def test_error_classes_declare_the_exit_codes():
    declared = {name: cls.exit_code for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.ToolkitError)}
    assert declared == _EXIT_CODES


_COMMANDS = _build_parsers()[1]


@pytest.mark.parametrize("cmd, flag", [
    (cmd, flag) for cmd, p in _COMMANDS.items() for a in p._actions
    if a.nargs is None for flag in a.option_strings])
def test_value_flag_joins_a_value_that_starts_with_dash(cmd, flag):
    # the parser may reject the value itself or miss a required flag, but
    # never reads "-x" as an option
    try:
        _parse_args([cmd, flag, "-x"])
    except _UsageError as exc:
        assert "expected one argument" not in str(exc)
    # a following flag of the same command stays a flag
    for other in set(_COMMANDS[cmd]._option_string_actions) - {flag}:
        with pytest.raises(_UsageError, match=f"argument {flag}: expected one argument"):
            _parse_args([cmd, flag, other])


@pytest.mark.parametrize("flags", [("--no-refine",), ("--refine-iterations", "5")],
                         ids=["no-refine", "refine-iterations"])
def test_becker_rejects_the_zoom_flags(capsys, flags):
    # becker searches the grid only, so it has no zoom to configure
    rec = _single_error(*run_cli(capsys, "becker", "--map", "K", "--rays", "16",
                                 "--radial", "8", *flags), 1)
    assert rec["message"] == f"unrecognized arguments: {' '.join(flags)}"


@pytest.mark.parametrize("argv, message", [
    # a value flag: --a is not --at, whatever its value
    (("eval", "--map", "K", "--op", "pre", "--a", "0.3,0.1", "--form", "csv"),
     "the following arguments are required: --at"),
    # a flag with choices
    (("eval", "--map", "K", "--op", "pre", "--at", "0.3,0.1", "--form", "csv"),
     "unrecognized arguments: --form csv"),
    # a store_const flag
    (("norm", "--map", "K", "--op", "S", "--no"), "unrecognized arguments: --no"),
    # a prefix of --rays and --radial
    (("norm", "--map", "K", "--op", "S", "--ra", "8"),
     "unrecognized arguments: --ra 8"),
], ids=["value-flag", "choice-flag", "store-const", "shared-prefix"])
def test_flags_are_spelled_in_full(capsys, argv, message):
    rec = _single_error(*run_cli(capsys, *argv), 1)
    assert rec["message"] == message


@pytest.mark.parametrize("op", ["pre", "schw", "jac", "dbarpre", "lap"])
def test_q_with_an_op_other_than_cdo_is_usage_error(capsys, op):
    # the text of q is never parsed, so an unparsable one exits 1 too
    for q in ("z", "1/"):
        rec = _single_error(*run_cli(capsys, "eval", "--map", "K", "--op", op,
                                     "--q", q, "--at", "0.3,0.1"), 1)
        assert rec["message"] == "--q applies to --op cdo only"


def test_no_refine_is_refine_iterations_0(capsys):
    argv = ("norm", "--map", "K", "--op", "S")
    want = run_cli(capsys, *argv, "--refine-iterations", "0")
    assert want[0] == 0
    assert run_cli(capsys, *argv, "--no-refine") == want
    # one destination: the last of the two flags wins
    assert run_cli(capsys, *argv, "--refine-iterations", "5", "--no-refine") == want
    assert run_cli(capsys, *argv, "--no-refine", "--refine-iterations", "5") == \
        run_cli(capsys, *argv, "--refine-iterations", "5")


def test_benchmark_commands_parse():
    # bench/workloads.py builds the benchmark's CLI commands; a flag they
    # use that the CLI stops accepting fails here rather than in a run
    for build in bench_workloads().BUILDERS.values():
        for cmd in build(1):
            args = _parse_args(cmd.argv)
            assert args.fn is _COMMANDS[cmd.argv[0]].get_default("fn"), cmd.argv


class TestDeepExpressions:
    def test_1000_terms_evaluate(self, capsys):
        h = "+".join(f"0.001*z^{k}" for k in range(1, 1001))
        code, out, err = run_cli(capsys, "eval", "--h", h, "--g", "0",
                                 "--op", "pre", "--at", "0.1,0")
        assert (code, err) == (0, "")
        assert json.loads(out)["op"] == "pre"

    @staticmethod
    def _value_and_jacobian(capsys, h):
        # render on the one-point grid {0.3} prints h(0.3); jac is |h'(0.3)|^2
        code, out, _ = run_cli(capsys, "render", "--h", h, "--g", "0",
                               "--rays", "1", "--circles", "1", "--rmax", "0.3")
        assert code == 0
        value = float(out.split("\n")[1].split(",")[2])
        code, out, _ = run_cli(capsys, "eval", "--h", h, "--g", "0",
                               "--op", "jac", "--at", "0.3,0")
        assert code == 0
        return value, json.loads(out)["value"][0]

    def test_5000_term_sum_evaluates(self, capsys):
        # z summed 5000 times has the jet [1500, 5000, 0] at 0.3
        h = "+".join(["z"] * 5000)
        value, jac = self._value_and_jacobian(capsys, h)
        assert abs(value - 1500.0) <= 1e-12 * 1500.0
        assert jac == 5000.0 ** 2
        code, out, _ = run_cli(capsys, "eval", "--h", h, "--g", "0",
                               "--op", "pre", "--at", "0.3,0")
        assert code == 0 and json.loads(out)["value"] == [0.0, 0.0]

    def test_5000_factor_product_evaluates(self, capsys):
        got = self._value_and_jacobian(capsys, "*".join(["(1+0.001*z)"] * 5000))
        want = self._value_and_jacobian(capsys, "(1+0.001*z)^5000")
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_integer_powers_above_512_are_exact(self, capsys):
        # z^513 is a jet power like z^2, so it is defined at the origin
        code, out, _ = run_cli(capsys, "eval", "--h", "z+z^513", "--g", "0",
                               "--op", "jac", "--at", "0,0")
        assert code == 0
        assert json.loads(out)["value"] == [1.0, 0.0]

    def test_shear_of_600_term_sum_round_trips(self):
        # h' is d(phi)/(1-c*(omega)): its text grows with phi alone
        phi = ExprFunction("+".join(f"0.001*z^{1 + k % 500}" for k in range(600)))
        f = shear(phi, ExprFunction("0.5*z"), 0.3)
        loaded = map_from_json(json.loads(json.dumps(map_to_json(f))))
        assert map_to_json(loaded) == map_to_json(f)
        for z in (0.0, 0.3 - 0.2j, -0.45 + 0.1j):
            for a, b in zip(f.derivative_data(z), loaded.derivative_data(z)):
                assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("h, jac", [
        ("(" * 10_000 + "z" + ")" * 10_000, [1.0, 0.0]),
        ("-" * 10_000 + "z", [1.0, 0.0]),
        ("z" + "^1" * 10_000, [1.0000000000000004, 0.0]),
    ], ids=["parentheses", "unary-minus", "power"])
    def test_10000_levels_evaluate(self, capsys, h, jac):
        # nesting depth has no limit: the parser and the printer keep
        # their own stacks, and the tape recurses nowhere
        code, out, err = run_cli(capsys, "eval", "--h", h, "--g", "0",
                                 "--op", "jac", "--at", "0.1,0")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == jac

    def test_800_terms_still_evaluate(self, capsys):
        h = "+".join(f"0.001*z^{k}" for k in range(1, 801))
        code, out, _ = run_cli(capsys, "eval", "--h", h, "--g", "0",
                               "--op", "pre", "--at", "0.1,0")
        assert code == 0
        assert json.loads(out)["op"] == "pre"


# recorded from the CLI before the operators and norms shared one copy of
# P_f, S_h and 1 - x^2; any drift in those formulas changes these bytes
_PINNED_BECKER = {
    "K": '{"holds": false, "worst_margin": -6.999990000002, "witness": [0.999999, 0.0]}',
    "L": '{"holds": false, "worst_margin": -4.999992000001999, "witness": [0.999999, 0.0]}',
    "S1": '{"holds": false, "worst_margin": -2.999994000002, "witness": [0.999999, 0.0]}',
    "S2": '{"holds": false, "worst_margin": -2.9999939999567564, "witness": [0.999999, 0.0]}',
    "K2": '{"holds": false, "worst_margin": -6.999990000001, "witness": [0.999999, 0.0]}',
    # k re-recorded when the catalog spelled k as (0.5*(1+z)/(1-z))^2 - 0.25,
    # whose jet gives k' = (1+z)/(1-z)^3 without cancellation
    "k": '{"holds": false, "worst_margin": -4.999992000001999, "witness": [0.999999, 0.0]}',
    "l": '{"holds": false, "worst_margin": -2.999994000002, "witness": [0.999999, 0.0]}',
    "s": '{"holds": false, "worst_margin": -0.9999960000019998, "witness": [0.999999, 0.0]}',
    "q2": '{"holds": false, "worst_margin": -2.999993999956756, "witness": [0.999999, 0.0]}',
}

_PINNED_EVAL = {
    ("K", "pre"): [
        '{"z": [0.1, 0.2], "op": "pre", "value": [5.010030959752323, 0.9917027863777093]}',
        '{"z": [-0.3, 0.1], "op": "pre", "value": [4.792156862745098, 0.14640522875816986]}',
        '{"z": [0.25, -0.35], "op": "pre", "value": [4.8146533401492295, -2.2655283396675356]}'],
    ("K", "schw"): [
        '{"z": [0.1, 0.2], "op": "schw", "value": [-8.511051124807118, -2.6494607482099886]}',
        '{"z": [-0.3, 0.1], "op": "schw", "value": [-11.165172369601438, 0.14419069588620087]}',
        '{"z": [0.25, -0.35], "op": "schw", "value": [-5.690118094657127, 5.860621094467078]}'],
    ("K", "lap"): [
        '{"z": [0.1, 0.2], "op": "lap", "value": [5.783008517509683, 0.7581403948286464]}',
        '{"z": [-0.3, 0.1], "op": "lap", "value": [-4.257204019346789, -0.9397335307882502]}',
        '{"z": [0.25, -0.35], "op": "lap", "value": [13.211831241596945, -5.845175572831241]}'],
    ("S2", "pre"): [
        '{"z": [0.1, 0.2], "op": "pre", "value": [0.3476219961668878, 0.8106383606074009]}',
        '{"z": [-0.3, 0.1], "op": "pre", "value": [-1.209982174688057, 0.5378490790255496]}',
        '{"z": [0.25, -0.35], "op": "pre", "value": [0.6103234945526107, -1.5714172802529993]}'],
    ("S2", "schw"): [
        '{"z": [0.1, 0.2], "op": "schw", "value": [3.9576865205916167, 0.2321465760819566]}',
        '{"z": [-0.3, 0.1], "op": "schw", "value": [4.250361007580258, -0.4129422567925243]}',
        '{"z": [0.25, -0.35], "op": "schw", "value": [4.071281990347951, -1.0503830070625642]}'],
    ("S2", "lap"): [
        '{"z": [0.1, 0.2], "op": "lap", "value": [1.6139647687911534, 0.24736724255281944]}',
        '{"z": [-0.3, 0.1], "op": "lap", "value": [3.3403339254245377, -0.9083015537852442]}',
        '{"z": [0.25, -0.35], "op": "lap", "value": [6.471778900151241, -4.3193038804886115]}'],
}


# recorded from the CLI while HarmonicMap still stored its form and its
# expression text; map_to_json, which now reads both off the map's
# functions, must reproduce these bytes
# the six eval ops of one parts-form map (omega = g'/h'), recorded while
# derivative_data still evaluated h' once for h' and again for omega
_PINNED_PARTS_EVAL = {
    "pre": [
        '{"z": [0.1, 0.2], "op": "pre", "value": [0.9983598528159657, 0.006560588736137003]}',
        '{"z": [-0.3, 0.1], "op": "pre", "value": [1.0293679483696612, 0.007341987092415297]}',
        '{"z": [0.25, -0.35], "op": "pre", "value": [0.9984159103726896, -0.00852971337782524]}'],
    "schw": [
        '{"z": [0.1, 0.2], "op": "schw", "value": [-0.4933788844011938, -0.01964948521498746]}',
        '{"z": [-0.3, 0.1], "op": "schw", "value": [-0.581974715442035, -0.022672818570828195]}',
        '{"z": [0.25, -0.35], "op": "schw", "value": [-0.49063379832710613, 0.02554860464201853]}'],
    "cdo": [
        '{"z": [0.1, 0.2], "op": "cdo", "value": [-0.3411902033463086, 0.6343690742614261]}',
        '{"z": [-0.3, 0.1], "op": "cdo", "value": [-0.31750391661001964, -0.1281532569685075]}',
        '{"z": [0.25, -0.35], "op": "cdo", "value": [-0.5068543434873907, -0.4033447967733504]}'],
    "jac": [
        '{"z": [0.1, 0.2], "op": "jac", "value": [1.2194027581601699, 0.0]}',
        '{"z": [-0.3, 0.1], "op": "jac", "value": [0.5448116360940265, 0.0]}',
        '{"z": [0.25, -0.35], "op": "jac", "value": [1.641321270700127, 0.0]}'],
    "dbarpre": [
        '{"z": [0.1, 0.2], "op": "dbarpre", "value": [0.027928233535932274, 0.0]}',
        '{"z": [-0.3, 0.1], "op": "dbarpre", "value": [0.12573016173696827, 0.0]}',
        '{"z": [0.25, -0.35], "op": "dbarpre", "value": [0.016769132961141745, 0.0]}'],
    "lap": [
        '{"z": [0.1, 0.2], "op": "lap", "value": [-0.14336857027667083, -0.023006699673504664]}',
        '{"z": [-0.3, 0.1], "op": "lap", "value": [-0.5998940532182895, -0.0392916184763005]}',
        '{"z": [0.25, -0.35], "op": "lap", "value": [-0.08752577172548077, 0.028275078067674347]}'],
}

# re-recorded when each entry of the one catalog table became the map
# JSON that catalog_map loads: the harmonic maps also print the hp and
# omega they evaluate, the analytic ones their omega = 0
_PINNED_CATALOG = {
    "K": '{"label": "K", "form": "parts", "h": "(z-0.5*z^2+z^3/6)/(1-z)^3", "g": "(0.5*z^2+z^3/6)/(1-z)^3", "hp": "(1+z)/(1-z)^4", "omega": "z", "sense": "preserving"}',
    "L": '{"label": "L", "form": "parts", "h": "(z-0.5*z^2)/(1-z)^2", "g": "-(0.5*z^2)/(1-z)^2", "hp": "1/(1-z)^3", "omega": "-z", "sense": "preserving"}',
    "S1": '{"label": "S1", "form": "parts", "h": "0.5*(z/(1-z)+0.5*log((1+z)/(1-z)))", "g": "0.5*(z/(1-z)-0.5*log((1+z)/(1-z)))", "hp": "1/((1-z)^2*(1+z))", "omega": "z", "sense": "preserving"}',
    "S2": '{"label": "S2", "form": "parts", "h": "0.5*(z/(1-z^2)+0.5*log((1+z)/(1-z)))", "g": "0.5*(z/(1-z^2)-0.5*log((1+z)/(1-z)))", "hp": "1/(1-z^2)^2", "omega": "z^2", "sense": "preserving"}',
    "K2": '{"label": "K2", "form": "parts", "h": "(1/(1-z)^3-1)/3", "g": "(z^2-z+1/3)/(1-z)^3-1/3", "hp": "1/(1-z)^4", "omega": "z^2", "sense": "preserving"}',
    # k re-recorded when the catalog spelled k as (0.5*(1+z)/(1-z))^2 - 0.25
    "k": '{"label": "k", "form": "parts", "h": "(0.5*(1+z)/(1-z))^2-0.25", "g": "0", "omega": "0", "sense": "preserving"}',
    "l": '{"label": "l", "form": "parts", "h": "z/(1-z)", "g": "0", "omega": "0", "sense": "preserving"}',
    "s": '{"label": "s", "form": "parts", "h": "0.5*log((1+z)/(1-z))", "g": "0", "omega": "0", "sense": "preserving"}',
    "q2": '{"label": "q2", "form": "parts", "h": "z/(1-z^2)", "g": "0", "omega": "0", "sense": "preserving"}',
}

_PINNED_SHEAR = {
    ("z/(1-z)^2", "z", "0"):
        '{"label": "shear(theta=0.0)", "form": "dilatation", "h": "d(z/(1.0-z)^2.0)/(1.0-1.0*z)", "omega": "z", "sense": "preserving"}',
    ("z", "0.5*z", "0.3"):
        '{"label": "shear(theta=0.3)", "form": "dilatation", "h": "d(z)/(1.0-(0.8253356149096783+0.5646424733950354*i)*(0.5*z))", "omega": "0.5*z", "sense": "preserving"}',
    ("1+z/(1-z)^2", "z", "0"):
        '{"label": "shear(theta=0.0)", "form": "dilatation", "h": "d(1.0+z/(1.0-z)^2.0)/(1.0-1.0*z)", "omega": "z", "sense": "preserving"}',
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(_PINNED_BECKER))
    def test_becker_json(self, capsys, name):
        code, out, _ = run_cli(capsys, "becker", "--map", name)
        assert code == 0
        assert out == _PINNED_BECKER[name] + "\n"

    @pytest.mark.parametrize("name, op", sorted(_PINNED_EVAL))
    def test_eval_lines(self, capsys, name, op):
        code, out, _ = run_cli(capsys, "eval", "--map", name, "--op", op,
                               "--at=0.1,0.2", "--at=-0.3,0.1", "--at=0.25,-0.35")
        assert code == 0
        assert out.split("\n") == _PINNED_EVAL[name, op] + [""]

    @pytest.mark.parametrize("op", sorted(_PINNED_PARTS_EVAL))
    def test_parts_form_eval_lines(self, capsys, op):
        code, out, _ = run_cli(capsys, "eval", "--h", "exp(z)", "--g", "0.1*z^2",
                               "--op", op, "--at=0.1,0.2", "--at=-0.3,0.1",
                               "--at=0.25,-0.35")
        assert code == 0
        assert out.split("\n") == _PINNED_PARTS_EVAL[op] + [""]

    @pytest.mark.parametrize("name", sorted(_PINNED_CATALOG))
    def test_catalog_json(self, capsys, name):
        code, out, _ = run_cli(capsys, "catalog", name)
        assert code == 0
        assert out == _PINNED_CATALOG[name] + "\n"

    @pytest.mark.parametrize("phi, omega, theta", sorted(_PINNED_SHEAR))
    def test_shear_json(self, capsys, phi, omega, theta):
        code, out, _ = run_cli(capsys, "shear", "--phi", phi, "--omega", omega,
                               "--theta", theta)
        assert code == 0
        assert out == _PINNED_SHEAR[phi, omega, theta] + "\n"
