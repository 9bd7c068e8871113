"""Command line interface: outputs, files, exit codes, determinism.

Each command is run in-process twice with identical arguments; stdout must
match byte for byte.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dstlift
from dstlift.cli import main
from dstlift.flow_lp import build_flow_lp, format_lp_dump, parse_lp_dump
from dstlift.instance import as_layered, format_instance, parse_instance
from dstlift.moments import export_moments, from_distribution

from conftest import (
    REFERENCE_TEXT,
    layered3_moments_text,
    tiny_chain,
    tiny_diamond,
    tiny_layered3,
)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_twice(argv, capsys):
    code1, out1, err1 = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2), "re-run must be byte-identical"
    return code1, out1, err1


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.dst"
    path.write_text(format_instance(tiny_chain()))
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.dst"
    path.write_text(format_instance(tiny_diamond()))
    return str(path)


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.dst"
    path.write_text(REFERENCE_TEXT)
    return str(path)


def diamond_moments_text(masses=(Fraction(3, 4), Fraction(1, 4))):
    layered = as_layered(tiny_diamond())
    _, vmap = build_flow_lp(layered)
    n = vmap.n_vars
    hi = [0] * n
    lo = [0] * n
    for edge in (("r", "b"), ("b", "s")):
        hi[vmap.edge_ordinal(edge)] = 1
        hi[vmap.flow_ordinal("s", edge)] = 1
    for edge in (("r", "a"), ("a", "s")):
        lo[vmap.edge_ordinal(edge)] = 1
        lo[vmap.flow_ordinal("s", edge)] = 1
    dist = [(masses[0], tuple(hi)), (masses[1], tuple(lo))]
    return export_moments(from_distribution(dist, 1))


@pytest.fixture
def diamond_moments(tmp_path):
    path = tmp_path / "diamond.mv"
    path.write_text(diamond_moments_text())
    return str(path)


@pytest.fixture
def diamond_system(tmp_path):
    cs, _ = build_flow_lp(as_layered(tiny_diamond()))
    path = tmp_path / "diamond.lpdump"
    path.write_text(format_lp_dump(cs))
    return str(path)


def test_levelize(chain_file, tmp_path, capsys):
    out_file = tmp_path / "flat.dst"
    code, out, _ = run_twice(
        ["levelize", chain_file, str(out_file), "--ell", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ell"] == 1
    layered = as_layered(parse_instance(out_file.read_text()))
    assert layered.ell == 1


def test_solve_lp(diamond_file, tmp_path, capsys):
    dump = tmp_path / "diamond.lpdump"
    code, out, _ = run_twice(
        ["solve-lp", diamond_file, "--dump", str(dump)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["objective"] == "3"
    assert payload["nonzero"]["e[r->b]"] == "1"
    cs, _ = build_flow_lp(as_layered(tiny_diamond()))
    assert parse_lp_dump(dump.read_text()) == cs


def test_lift_dim(diamond_file, capsys):
    code, out, _ = run_twice(["lift-dim", diamond_file, "--t", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_vars"] == 8
    assert payload["main_dim"] == 37
    assert payload["within_budget"] is True
    code, out, _ = run_twice(
        ["lift-dim", diamond_file, "--t", "1", "--budget", "10"], capsys
    )
    assert code == 0
    assert json.loads(out)["within_budget"] is False


def test_lift_dim_ignores_budget_environment(diamond_file, capsys, monkeypatch):
    """The budget comes from `--budget` or the default, never the environment."""
    argv = ["lift-dim", diamond_file, "--t", "1"]
    _, before, _ = run_cli(argv, capsys)
    monkeypatch.setenv("DSTLIFT_MOMENT_BUDGET", "3")
    assert run_cli(argv, capsys) == (0, before, "")


def test_lift_solve_and_replay(chain_file, tmp_path, capsys):
    out_file = tmp_path / "chain.mv"
    argv = ["lift-solve", chain_file, "--t", "1", "--out", str(out_file)]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["certify_ok"] is True
    assert abs(payload["objective"] - 5.0) <= 1e-4
    assert payload["diagnostics"]["backend"] == "admm"
    assert payload["diagnostics"]["converged"] is True

    code, out, _ = run_twice(
        ["lift-solve", chain_file, "--t", "1", "--replay", str(out_file)],
        capsys,
    )
    assert code == 0
    replay = json.loads(out)
    assert replay["diagnostics"]["backend"] == "file"
    assert abs(replay["objective"] - payload["objective"]) <= 1e-9


def test_lift_solve_budget_error(diamond_file, capsys):
    code, out, err = run_cli(
        ["lift-solve", diamond_file, "--t", "1", "--budget", "5"], capsys
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_check_accepts_distribution(
    diamond_moments, diamond_system, capsys
):
    code, out, _ = run_twice(
        ["check", diamond_moments, diamond_system, "--t", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["certify_ok"] is True
    assert all(r["ok"] for r in payload["inversion"])
    assert all(r["ok"] for r in payload["shift_commutes"])


def test_check_flags_corruption(
    diamond_moments, diamond_system, tmp_path, capsys
):
    with open(diamond_moments) as fh:
        lines = fh.read().splitlines()
    # inflate the last stored moment well past its singleton bounds
    broken = lines[:-1] + [lines[-1].rsplit(":", 1)[0] + ": 7/2"]
    bad = tmp_path / "bad.mv"
    bad.write_text("\n".join(broken) + "\n")
    code, out, _ = run_cli(
        ["check", str(bad), diamond_system, "--t", "1"], capsys
    )
    assert code == 1
    assert json.loads(out)["ok"] is False


GOLDEN = Path(__file__).resolve().parent / "golden"


def point_mass_edits():
    """Edits that turn the diamond mix into the point mass on r->b->s."""
    edits = {}
    for line in diamond_moments_text().splitlines()[1:]:
        key, value = (part.strip() for part in line.split(":"))
        if value in ("3/4", "1/4"):
            edits[key] = "1" if value == "3/4" else "0"
    return edits


@pytest.mark.parametrize(
    "case, edits, extra_row",
    [
        # 1/2 e[r->a] + 1/3 e[r->b] >= 1/4: its block is scaled by 12 and
        # fails with a negative diagonal once e[r->b] drops to 2/3.
        ("check_row_block", {"3": "2/3"}, "ge 0 0 1/2 1/3 0 0 0 0 1/4 mix"),
        # The main block fails at a later pivot, with witness -3/44.
        ("check_main_block", {"0 1": "1/10"}, None),
        # The point mass with two size-4 entries raised: only the main block
        # reads them, so its one psd issue is followed by bounds,
        # monotonicity and one-propagation issues that print index sets.
        (
            "check_order_laws",
            {**point_mass_edits(), "0 1 3 5": "1/2", "1 3 5 7": "3/2"},
            None,
        ),
    ],
)
def test_check_failure_bytes_are_pinned(case, edits, extra_row, tmp_path, capsys):
    """`check` output of corrupted exact vectors, recorded from the rational
    Schur elimination that the integer test replaced: the witnesses convert
    back from the scaled ints to the same `Fraction`s."""
    lines = []
    for line in diamond_moments_text().splitlines():
        key = line.split(":", 1)[0].strip()
        lines.append(f"{key} : {edits[key]}" if key in edits else line)
    bad = tmp_path / "bad.mv"
    bad.write_text("\n".join(lines) + "\n")
    cs, _ = build_flow_lp(as_layered(tiny_diamond()))
    dump = format_lp_dump(cs).splitlines()
    if extra_row:
        dump = [f"lpdump {cs.n_vars} {len(cs.rows) + 1}", dump[1], extra_row] + dump[2:]
    system = tmp_path / "system.lpdump"
    system.write_text("\n".join(dump) + "\n")
    code, out, _ = run_twice(["check", str(bad), str(system), "--t", "1"], capsys)
    assert code == 1
    assert out == (GOLDEN / f"{case}.json").read_text()


@pytest.mark.parametrize(
    "case, masses",
    [
        ("lift_solve_replay", (Fraction(3, 4), Fraction(1, 4))),
        # float moments: summed in another order the objective reads
        # 3.6 or 3.6000000000000005 instead of 3.5999999999999996
        ("lift_solve_replay_float", (0.7, 0.3)),
    ],
)
def test_lift_solve_replay_bytes_are_pinned(
    case, masses, diamond_file, tmp_path, capsys
):
    """Replay sums the objective over the lift's columns in column order, so
    the golden pins that order along with the output bytes."""
    moments_file = tmp_path / "diamond.mv"
    moments_file.write_text(diamond_moments_text(masses))
    argv = ["lift-solve", diamond_file, "--t", "1", "--replay", str(moments_file)]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / f"{case}.json").read_text()


def test_round(diamond_file, diamond_moments, tmp_path, capsys):
    out_file = tmp_path / "round.json"
    argv = [
        "round",
        diamond_file,
        "--moments",
        diamond_moments,
        "--reps",
        "2",
        "--trials",
        "3",
        "--out",
        str(out_file),
    ]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 3
    assert out_file.read_text() == out
    inst = tiny_diamond()
    cheap = {"r->b", "b->s"}
    for run in payload["runs"]:
        edges = set(run["edges"])
        assert cheap <= edges or {"r->a", "a->s"} <= edges
    assert payload["best_cost"] >= 3.0


def test_stats(diamond_file, diamond_moments, tmp_path, capsys):
    plot = tmp_path / "plot.dat"
    argv = [
        "stats",
        diamond_file,
        "--moments",
        diamond_moments,
        "--trials",
        "60",
        "--plot-data",
        str(plot),
    ]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 60
    assert payload["marginals_ok"] is True
    assert payload["clamps"] == 0
    assert len(payload["paths"]) == 2
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("# terminal")
    assert lines[1].startswith("s ")


@pytest.mark.parametrize("kind", ["exact", "float"])
@pytest.mark.parametrize("command", ["round", "stats"])
def test_sampling_bytes_are_pinned(command, kind, tmp_path, capsys):
    """`round` and `stats` stdout on three levels and two terminals; the
    goldens pin the sampler's draw order, query counts and clamps."""
    inst_file = tmp_path / "layered3.dst"
    inst_file.write_text(format_instance(tiny_layered3()))
    moments_file = tmp_path / "layered3.mv"
    moments_file.write_text(layered3_moments_text(exact=kind == "exact"))
    argv = [command, str(inst_file), "--moments", str(moments_file), "--seed", "1"]
    argv += ["--reps", "2", "--trials", "3"] if command == "round" else ["--trials", "200"]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    runs = payload["runs"] if command == "round" else [payload]
    clamps = sum(run["clamps"] for run in runs)
    assert (clamps > 0) == (kind == "float")
    assert out == (GOLDEN / f"{command}_layered3_{kind}.json").read_text()


def test_exact(reference_file, capsys):
    code, out, _ = run_twice(["exact", reference_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == "19"
    assert "r->u1" in payload["edges"]
    assert len(payload["edges"]) == 9


def test_experiment_smoke(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    tsv_file = tmp_path / "ratios.tsv"
    argv = [
        "experiment",
        "--suite",
        "smoke",
        "--max-iter",
        "4000",
        "--out",
        str(report_file),
        "--tsv",
        str(tsv_file),
    ]
    code, out, _ = run_twice(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "smoke"
    assert [r["name"] for r in payload["rows"]] == ["chain", "diamond"]
    assert report_file.read_text() == out
    lines = tsv_file.read_text().splitlines()
    assert lines[0].startswith("# name")
    assert lines[1].startswith("chain ")


def test_error_exit_codes(tmp_path, capsys):
    bogus = tmp_path / "bogus.dst"
    bogus.write_text("not an instance\n")
    code, out, err = run_cli(["exact", str(bogus)], capsys)
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run_cli(["exact", str(tmp_path / "missing.dst")], capsys)
    assert code == 2 and "error:" in err
    diamond = tmp_path / "diamond.dst"
    diamond.write_text(format_instance(tiny_diamond()))
    moments_file = tmp_path / "diamond.mv"
    moments_file.write_text(diamond_moments_text())
    for command in ("round", "stats"):
        argv = [command, str(diamond), "--moments", str(moments_file), "--trials", "0"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", "error: need at least one trial\n")
    code, out, err = run_cli(["lift-dim", str(diamond), "--t", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: level must be nonnegative\n")
    argv = ["lift-solve", str(diamond), "--t", "1", "--max-iter", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: need at least one iteration\n")
    for tol in ("-1", "0", "nan"):
        argv = ["lift-solve", str(diamond), "--t", "1", "--tol", tol]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", "error: tol must be positive and finite\n")
        argv = ["experiment", "--suite", "smoke", "--tol", tol]
        code, out, err = run_cli(argv, capsys)
        want = "error: [sdp-solve] tol must be positive and finite\n"
        assert (code, out, err) == (2, "", want)
    half = tmp_path / "half.mv"
    dist = [(Fraction(1, 2), (1, 0)), (Fraction(1, 2), (0, 0))]
    half.write_text(export_moments(from_distribution(dist, 0)))
    system = tmp_path / "x0.lpdump"
    system.write_text("lpdump 2 1\nmin 1 1\nge 1 0 1 x0\n")
    code, _, _ = run_cli(["check", str(half), str(system), "--t", "0"], capsys)
    assert code == 1  # the shifted matrix y(x0 - 1) = -1/2 is not PSD
    code, out, err = run_cli(["check", str(half), str(system), "--t", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: level must be nonnegative\n")
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_python_dash_m_runs_the_cli():
    src = Path(dstlift.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dstlift", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dstlift")
