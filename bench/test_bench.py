"""Self-tests of the benchmark harness, kept apart from the package's suite.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

REFS = W.Refs(HERE / "refs.json")
# Working directory inside the checkout (ignored by git), not a system temp dir.
WORKDIR = HERE / "out" / "selftest"
NAMES = ("siso_closed_form", "mimo_sampled", "cli_reports")
# Ops replayed per workload in the determinism test (about a second each).
REPLAYED = {"siso_closed_form": 40, "mimo_sampled": 8, "cli_reports": 4}


@pytest.fixture
def workdir():
    if WORKDIR.exists():
        shutil.rmtree(WORKDIR)
    WORKDIR.mkdir(parents=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR)


def make(name: str, out_dir: Path):
    if name == "cli_reports":
        return W.CliReports(out_dir)
    return W.SisoClosedForm() if name == "siso_closed_form" else W.MimoSampled()


def execute(wl, op):
    return wl.collect(op, wl.execute(op))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_ops(name, workdir):
    wl = make(name, workdir)
    assert [wl.round(7, r) for r in range(3)] == [wl.round(7, r) for r in range(3)]
    assert wl.round(7, 0) != wl.round(8, 0)
    assert wl.round(7, 0) != wl.round(7, 1)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_checked_outputs(name, workdir):
    wl = make(name, workdir)
    ops = wl.round(3, 0)[: REPLAYED[name]]

    def replay():
        outs = [execute(wl, op) for op in ops]
        return outs, [wl.check(op, out, REFS) for op, out in zip(ops, outs)]

    assert replay() == replay()


def test_checker_rejects_planted_siso_values():
    wl = W.SisoClosedForm()
    op = W.Op("joint_bound_j1", (10, 1, 10.0))
    out = execute(wl, op)
    assert wl.check(op, out, REFS) == ""
    assert wl.check(op, out * (1 + 1e-6), REFS) == "value"

    op = W.Op("separate_bound", (115, 10.0))
    value, tau_star = execute(wl, op)
    assert wl.check(op, (value, tau_star), REFS) == ""
    assert wl.check(op, (value, 115), REFS) == "tau_range"
    assert wl.check(op, (value, tau_star + 3), REFS) == "tau_suboptimal"
    assert wl.check(op, (value * (1 - 1e-7), tau_star), REFS) == "value"

    op = W.Op("joint_bound_j2", (1000, 2, -100.0))
    j1 = REFS.joint("j1", 1000, 2, -100.0)
    assert wl.check(op, j1 * 1.01, REFS) == "ordering"

    op = W.Op("power_advantage_at_snr", (10, 10.0))
    out = execute(wl, op)
    assert wl.check(op, out, REFS) == ""
    assert wl.check(op, out + 1e-3, REFS) == "value"


def test_checker_rejects_planted_mimo_values():
    wl = W.MimoSampled()
    op = W.Op("capacity_ctr", (2, 2, 10.0, 123))
    mean, se, used = execute(wl, op)
    assert used > 0 and wl.check(op, (mean, se, used), REFS) == ""
    assert wl.check(op, (mean + 6 * se, se, used), REFS) == "mc_5se"

    op = W.Op("mimo_optimize_pilots", (2, 6, 10.0, 5))
    out = execute(wl, op)
    assert wl.check(op, out, REFS) == ""
    assert wl.check(op, out[:3] + (1,) + out[4:], REFS) == "tau_range"


def test_checker_rejects_planted_cli_values(workdir):
    wl = W.CliReports(workdir)
    op = W.Op("sweep_fig1", ((2, 10, 115), (0.0, 10.0)))
    code, doc = execute(wl, op)
    assert code == 0 and wl.check(op, (code, doc), REFS) == ""
    doc["rows"][1]["capacity"] *= 1 + 1e-6
    assert wl.check(op, (code, doc), REFS) == "value"

    op = W.Op("validate", (11, 16384))
    code, doc = execute(wl, op)
    assert wl.check(op, (code, doc), REFS) == ""
    cell = next(r for r in doc["rows"] if r["name"].startswith("penalty_term"))
    cell["estimate"] += 6 * cell["std_error"]
    assert wl.check(op, (code, doc), REFS) == "mc_5se"
    assert wl.check(op, (1, doc), REFS) == "exit_code"


def test_known_defects_match_exact_grid_points():
    import run

    name = W.SisoClosedForm.name
    known = run.load_known(HERE / "known_defects.json", name)
    assert known and run.load_known(HERE / "known_defects.json", "mimo_sampled") == set()
    kind, args, reason = min(known)
    listed = W.Op(kind, args)
    # a workload whose check returns the planted reason as it is
    planted = type("Planted", (), {"name": name, "check": lambda self, op, out, refs: out})()
    assert run.check_records(planted, [(listed, reason)], REFS, known) == ([(listed, reason)], [])
    # the same failure at another grid point, or for another reason, is unexpected
    moved = W.Op(kind, args[:-1] + (40.0,))
    assert run.check_records(planted, [(moved, reason)], REFS, known)[1] == [(moved, reason)]
    assert run.check_records(planted, [(listed, "other")], REFS, known)[1] == [(listed, "other")]


def test_siso_rounds_never_draw_a_known_defect():
    import run

    known = run.load_known(HERE / "known_defects.json", W.SisoClosedForm.name)
    skip = frozenset((kind, args) for kind, args, _ in known)
    wl = W.SisoClosedForm(skip)
    ops = [op for seed in (1, 2) for r in range(4) for op in wl.round(seed, r)]
    assert not any((op.kind, op.args) in skip for op in ops)
    # vanishing SNR stays in the draw wherever some point of it passes
    vanishing = W.G.SISO_SNR_STRATA[0]
    assert sum(op.args[-1] in vanishing for op in ops) > len(ops) // 8
    # where every point of a stratum fails, the draw moves one stratum up
    lowest = {args[-1] for args in wl.points("power_advantage_at_snr", 2, 0)}
    assert lowest <= set(W.G.SISO_SNR_STRATA[1])


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 100 and result["correct"] is True
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(workdir, "siso_closed_form", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
