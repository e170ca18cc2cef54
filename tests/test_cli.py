import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyradii
from polyradii.bodies import BodySpec, make_body
from polyradii.cli import run
from polyradii.convex_core import loads_vpolytope
from polyradii.radii import circumradius, radii_report

SQRT3 = math.sqrt(3.0)


@pytest.fixture
def body_files(tmp_path):
    paths = {}
    for name, kind in (("triangle", "equilateral_triangle"), ("square", "centered_square")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(make_body(BodySpec(kind)).to_dict()))
        paths[name] = str(path)
    return paths


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_body_subcommand_emits_polytope_json(capsys):
    code, out, _ = run_cli(capsys, "body", "--kind", "cube", "--dim", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert sorted(map(tuple, data["vertices"])) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
    ]


def test_body_subcommand_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "body", "--kind", "cube")
    assert code == 1
    assert "error" in err


def test_unknown_flag_exits_one_with_usage(capsys):
    code, _, err = run_cli(capsys, "radii", "--frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_eval_support(capsys, body_files):
    code, out, _ = run_cli(
        capsys, "eval", "--body", body_files["triangle"], "--fn", "support",
        "--dir", "1,0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(2.0, abs=1e-9)
    assert data["witness"] == [2.0, 0.0]


def test_eval_gauge_and_chord(capsys, body_files):
    # Leading-dash vectors need the = form, as usual with argparse tools.
    code, out, _ = run_cli(
        capsys, "eval", "--body", body_files["triangle"], "--fn", "gauge",
        "--dir=-2,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-7)
    code, out, _ = run_cli(
        capsys, "eval", "--body", body_files["square"], "--fn", "chord",
        "--dir", "1,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0 * SQRT3, abs=1e-7)


def test_eval_width_and_radius(capsys, body_files):
    code, out, _ = run_cli(
        capsys, "eval", "--body", body_files["triangle"], "--fn", "width",
        "--dir", "1,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, "eval", "--body", body_files["triangle"], "--fn", "radius",
        "--dir", "1,0",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-7)


def test_eval_gauge_needs_interior_origin(capsys, tmp_path):
    shifted = make_body(BodySpec("equilateral_triangle"))
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vertices": (shifted.vertices + np.array([30.0, 0.0])).tolist(),
    }))
    code, _, err = run_cli(capsys, "eval", "--body", str(path), "--fn", "gauge",
                           "--dir", "1,0")
    assert code == 1
    assert "origin" in err


def test_radii_single_quantity_matches_reference(capsys, body_files):
    code, out, _ = run_cli(
        capsys, "radii", "--body", body_files["square"], "--gauge",
        body_files["triangle"], "--quantity", "D",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data.keys()) == {"D"}
    assert data["D"]["value"] == pytest.approx((2.0 / 3.0) * (3.0 + SQRT3), abs=1e-7)


def test_radii_all_round_trips_bit_for_bit(capsys, body_files):
    code, out, _ = run_cli(
        capsys, "radii", "--body", body_files["square"], "--gauge",
        body_files["triangle"],
    )
    assert code == 0
    with open(body_files["square"], encoding="utf-8") as fh:
        body = loads_vpolytope(fh.read())
    with open(body_files["triangle"], encoding="utf-8") as fh:
        gauge_body = loads_vpolytope(fh.read())
    from polyradii.cli import _round9

    in_process = json.dumps(_round9(radii_report(body, gauge_body)))
    assert out.strip() == in_process


def test_verify_exits_zero_and_reports_chain(capsys, tmp_path):
    gauge_poly = make_body(BodySpec("reuleaux_triangle", n=48))
    body = json.dumps({"dim": 2, "vertices": (-gauge_poly.vertices).tolist()})
    body_path = tmp_path / "k.json"
    gauge_path = tmp_path / "c.json"
    body_path.write_text(body)
    gauge_path.write_text(json.dumps(gauge_poly.to_dict()))
    code, out, _ = run_cli(
        capsys, "verify", "--body", str(body_path), "--gauge", str(gauge_path),
        "--tol", "5e-3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["a1"] == pytest.approx(2.0, abs=5e-3)
    assert data["a4"] == pytest.approx((3.0 + SQRT3) / 2.0, abs=5e-3)
    assert data["flags"]["a4_le_a5"]


def test_verify_exit_two_when_tolerance_is_unmeetable(capsys, body_files):
    # At a zero-width tolerance the LP round-off on the two independent
    # routes for a1/a2/a3 becomes a violation.
    code, out, _ = run_cli(
        capsys, "verify", "--body", body_files["square"], "--gauge",
        body_files["triangle"], "--tol", "1e-300",
    )
    assert code == 2
    assert json.loads(out)["flags"]  # report still emitted


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, body_files, tol):
    # --tol nan printed the non-JSON token NaN, and --tol inf passed every flag.
    code, out, err = run_cli(capsys, "verify", "--body", body_files["square"],
                             "--gauge", body_files["triangle"], "--tol", tol)
    assert code == 1
    assert out == ""
    assert "finite and positive" in err


def test_verify_rejects_nan_json(capsys, tmp_path, body_files):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[NaN, 0.0], [1.0, 0.0], [0.0, 1.0]]}')
    code, _, err = run_cli(capsys, "verify", "--body", str(bad), "--gauge",
                           body_files["triangle"])
    assert code == 1
    assert "rejected" in err or "error" in err


def test_missing_file_exits_one(capsys, body_files):
    code, _, err = run_cli(capsys, "radii", "--body", "/nonexistent.json",
                           "--gauge", body_files["triangle"])
    assert code == 1
    assert "error" in err


def test_approx_reuleaux_csv(capsys):
    code, out, _ = run_cli(capsys, "approx", "--example", "reuleaux",
                           "--n-list", "12,24")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,R,r,D,omega,err_R,err_r,err_D,err_omega"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "12"
    assert float(first[1]) == pytest.approx((3.0 + SQRT3) / 2.0, abs=5e-2)
    for row in lines[1:]:
        errs = [float(v) for v in row.split(",")[5:]]
        assert all(e < 5e-2 for e in errs)


def test_approx_rejects_bad_n_list(capsys):
    code, _, err = run_cli(capsys, "approx", "--example", "reuleaux",
                           "--n-list", "a,b")
    assert code == 1
    assert "n-list" in err


def test_numerical_failures_exit_three(capsys, body_files, monkeypatch, tmp_path):
    import polyradii.cli as cli
    import polyradii.radii as radii

    def explode(*args, **kwargs):
        raise RuntimeError("pivot limit reached")

    monkeypatch.setattr(cli, "verify_chain", explode)
    code, _, err = run_cli(capsys, "verify", "--body", body_files["square"],
                           "--gauge", body_files["triangle"])
    assert code == 3
    assert "numerical failure" in err
    # The containment engine's round cap, off the plane.
    paths = []
    for kind in ("simplex", "cube"):
        path = tmp_path / f"{kind}3.json"
        path.write_text(json.dumps(make_body(BodySpec(kind, dim=3)).to_dict()))
        paths.append(str(path))
    monkeypatch.setattr(radii, "_MAX_CUT_ROUNDS", 1)
    code, _, err = run_cli(capsys, "radii", "--body", paths[0], "--gauge", paths[1],
                           "--quantity", "R")
    assert code == 3
    assert "circumradius facet generation did not converge in 1 rounds (d=3" in err
    # The cube in a rotated box 1e-10 thin: the box's gauge LPs are infeasible
    # at every vertex of the cube, and the engine names that instead of
    # passing nan cuts to its master LP.
    monkeypatch.undo()
    for dim in (3, 4):
        rotation = np.linalg.qr(np.random.default_rng(100).normal(size=(dim, dim)))[0]
        cube = make_body(BodySpec("cube", dim=dim)).vertices
        for name, vertices in (("cube", cube),
                               ("box", cube * np.r_[np.ones(dim - 1), 1e-10] @ rotation.T)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"dim": dim, "vertices": vertices.tolist()}))
        code, out, err = run_cli(capsys, "radii", "--body", str(tmp_path / "cube.json"),
                                 "--gauge", str(tmp_path / "box.json"), "--quantity", "R")
        assert code == 3 and out == ""
        # The master's d + 1 start cuts are its only cuts at the first oracle.
        assert (f"numerical failure: circumradius facet LP ({dim + 1} x {dim + 1}): the oracle's "
                f"gauge LP is infeasible at {2 ** dim} of {2 ** dim} points") in err
        # The box has full rank, so the diameter's (C-C)/2 is not flat input:
        # its failed interior certificate is a numerical failure.
        code, out, err = run_cli(capsys, "radii", "--body", str(tmp_path / "cube.json"),
                                 "--gauge", str(tmp_path / "box.json"), "--quantity", "D")
        assert code == 3 and out == ""
        assert ("numerical failure: (C-C)/2 has full rank, but origin is not interior "
                "to the gauge body (slack") in err


def test_a_master_that_ends_unbounded_exits_three(capsys, body_files, monkeypatch):
    # The containment master reads only an optimal end of the simplex
    # kernel: any other status, such as the unbounded verdict of an empty
    # ratio test, is the engine's numerical failure (exit 3).
    from polyradii import lp_solver

    monkeypatch.setattr(lp_solver, "_primal", lambda *args: (lp_solver.UNBOUNDED, None, None))
    code, out, err = run_cli(capsys, "radii", "--body", body_files["square"],
                             "--gauge", body_files["triangle"], "--quantity", "R")
    assert code == 3 and out == ""
    assert "circumradius facet LP (3 x 3) ended with status numerical-failure" in err


def test_sliver_gauge_of_full_rank_exits_three(capsys, body_files, tmp_path):
    # A triangle of height 1e-12 keeps its hull, so C - C has full rank:
    # its failed interior certificate is a numerical failure, not bad input.
    sliver = tmp_path / "sliver.json"
    sliver.write_text(json.dumps({"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]]}))
    for argv in (("radii", "--quantity", "D"), ("verify",)):
        code, out, err = run_cli(capsys, *argv, "--body", body_files["square"],
                                 "--gauge", str(sliver))
        assert code == 3 and out == ""
        assert "numerical failure" in err and "full rank" in err


def test_radii_of_a_flat_pair_in_space(capsys, tmp_path):
    # A triangle and a square embedded in 3-D by one orthonormal 2-frame and
    # a common offset: the gauge's frame is flat of rank 2, and R is planar.
    frame = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 2)))[0]
    offset = np.array([3.0, -2.0, 5.0])
    for name, kind in (("k", "centered_square"), ("c", "equilateral_triangle")):
        vertices = make_body(BodySpec(kind)).vertices @ frame.T + offset
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"dim": 3, "vertices": vertices.tolist()}))
    code, out, err = run_cli(capsys, "radii", "--body", str(tmp_path / "k.json"),
                             "--gauge", str(tmp_path / "c.json"), "--quantity", "R")
    assert code == 0, err
    want = circumradius(make_body(BodySpec("centered_square")),
                        make_body(BodySpec("equilateral_triangle"))).value
    assert json.loads(out)["R"]["value"] == pytest.approx(want, rel=1e-8)


def test_output_uses_nine_significant_digits(capsys, body_files):
    _, out, _ = run_cli(
        capsys, "radii", "--body", body_files["square"], "--gauge",
        body_files["triangle"], "--quantity", "D",
    )
    value = json.loads(out)["D"]["value"]
    assert value == float(f"{(2.0 / 3.0) * (3.0 + SQRT3):.9g}")


def test_out_of_memory_exits_three(capsys, body_files, monkeypatch):
    import polyradii.cli as cli

    for error, message in (
        (MemoryError("Unable to allocate 5.00 GiB for an array"),
         "numerical failure: out of memory: Unable to allocate 5.00 GiB for an array\n"),
        (MemoryError(), "numerical failure: out of memory\n"),
    ):
        def explode(*args, error=error, **kwargs):
            raise error

        monkeypatch.setattr(cli, "verify_chain", explode)
        code, out, err = run_cli(capsys, "verify", "--body", body_files["square"],
                                 "--gauge", body_files["triangle"])
        assert (code, out, err) == (3, "", message)


def test_radii_does_not_import_numpy_ma(body_files):
    # np.unique(..., axis=0) imports numpy.ma, about 10 ms of every process;
    # the hull and difference-body dedupes are one lexsort instead.
    script = ("import sys; from polyradii.cli import run; "
              "code = run(sys.argv[1:]); print('numpy.ma' in sys.modules); sys.exit(code)")
    package_parent = str(Path(polyradii.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, "radii", "--body", body_files["square"],
                           "--gauge", body_files["triangle"]], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=package_parent), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
