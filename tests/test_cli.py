import contextlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotbounds import cli, siso, sweeps
from pilotbounds.montecarlo import BIT_GENERATOR, DEFAULT_SCALAR_SAMPLES


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bound_text(capsys):
    rc, out, _ = run_cli(capsys, "bound", "--kind", "j1", "--T", "10", "--tau", "1", "--snr-db", "0")
    assert rc == 0
    assert out == "0.53367\n"


def test_bound_capacity_json_meta(capsys):
    rc, out, _ = run_cli(
        capsys, "bound", "--kind", "c", "--snr-db", "10", "--format", "json", "--nt", "1", "--nr", "1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["nt"] == doc["meta"]["nr"] == 1
    assert doc["meta"]["command"] == "bound"
    # nothing is sampled: no sampling flags, columns or meta
    assert not {"samples", "seed", "workers"} & set(doc["meta"])
    assert doc["rows"][0]["value"] == pytest.approx(2.9065148084148045, rel=1e-12)
    assert list(doc["rows"][0]) == sorted(cli._BOUND_COLUMNS)
    assert not {"std_error", "samples_used", "tie_within_margin"} & set(doc["rows"][0])


def test_bound_csv_rounds_db_columns(capsys):
    rc, out, _ = run_cli(
        capsys, "bound", "--kind", "j2", "--T", "10", "--tau", "1",
        "--snr-db", "0.123456", "--format", "csv",
    )
    assert rc == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["snr_db"] == "0.1235"
    # non-dB values keep full precision
    assert len(cells["value"].split(".")[1]) > 8


def test_bound_separate_reports_pilot_count(capsys):
    rc, out, _ = run_cli(
        capsys, "bound", "--kind", "is", "--T", "10", "--snr-db", "0", "--format", "csv"
    )
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["tau_star"] == "3"


def test_bound_mimo(capsys):
    rc, out, _ = run_cli(
        capsys, "bound", "--kind", "j1", "--T", "10", "--tau", "2",
        "--snr-db", "0", "--nt", "1", "--nr", "1",
    )
    assert rc == 0
    rc2, out2, _ = run_cli(
        capsys, "bound", "--kind", "j1", "--T", "10", "--tau", "2", "--snr-db", "0"
    )
    assert out == out2  # single-antenna reduction carries to the CLI


def test_offset_text(capsys):
    rc, out, _ = run_cli(capsys, "offset", "--kind", "advantage-asymptotic", "--T", "2")
    assert rc == 0
    assert out == "0.0000 dB\n"
    rc, out, _ = run_cli(capsys, "offset", "--kind", "advantage-asymptotic", "--T", "10")
    assert out == "1.8992 dB\n"
    rc, out, _ = run_cli(capsys, "offset", "--kind", "single-pilot", "--T", "10")
    assert out == "0.2507 dB\n"
    rc, out, _ = run_cli(capsys, "offset", "--kind", "true-capacity-gap", "--T", "10")
    assert out == "stirling 0.5556 dB\nexact 0.5907 dB\n"


def test_offset_gap_csv_components(capsys):
    rc, out, _ = run_cli(
        capsys, "offset", "--kind", "true-capacity-gap", "--T", "10", "--format", "csv"
    )
    lines = out.strip().split("\n")
    assert len(lines) == 5
    components = [line.split(",")[4] for line in lines[1:]]
    assert components == ["penalty_exact", "penalty_stirling", "gap_exact", "gap_stirling"]


def test_optimize_text(capsys):
    rc, out, _ = run_cli(capsys, "optimize-pilots", "--T", "10", "--snr-db", "10")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau_star=1"
    assert lines[1].startswith("value=2.302")


def test_sweep_default_csv(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--kind", "fig2", "--T-grid", "2,10,100",
                         "--snr-db-list", "10")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "T,asymptote_db,advantage_10dB_db"
    assert lines[1] == "2,0.0000,-0.5529"
    assert lines[2].startswith("10,1.8992,")


def test_sweep_convergence_guard(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--kind", "convergence", "--T-grid", "10,50")
    assert rc == 2
    assert "decades" in err


def test_sweep_json(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "--kind", "fig1", "--T-grid", "2,4",
        "--snr-db-list", "0", "--format", "json",
    )
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["T"] == 2


def test_validate_small(capsys):
    rc, out, _ = run_cli(capsys, "validate", "--samples", "2000", "--seed", "42")
    assert rc == 0
    assert out.endswith("PASS (all |z| <= 4)\n")


def test_validate_reruns_byte_identical(capsys):
    args = ("validate", "--samples", "2000", "--seed", "42", "--format", "csv")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_validate_renders_its_text_table_only_for_text(capsys, monkeypatch, fmt):
    def refuse(self):
        raise AssertionError("rendered the text table for --format " + fmt)

    monkeypatch.setattr(sweeps.ValidationReport, "render", refuse)
    rc, out, _ = run_cli(capsys, "validate", "--samples", "2000", "--format", fmt)
    assert rc == 0 and "gram_minimal" in out


def test_validate_failure_exit_code(capsys, monkeypatch):
    original = sweeps.validate_all
    def corrupted(cfg):
        report = original(cfg)
        return report._replace(passed=False)
    monkeypatch.setattr(sweeps, "validate_all", corrupted)
    rc, _, _ = run_cli(capsys, "validate", "--samples", "2000")
    assert rc == 3


def test_bad_arguments_exit_code(capsys):
    assert run_cli(capsys, "bound", "--kind", "zz", "--snr-db", "0")[0] == 2
    assert run_cli(capsys, "bound", "--kind", "j1", "--snr-db", "0")[0] == 2
    assert run_cli(capsys, "bound", "--kind", "c")[0] == 2
    rc, _, err = run_cli(capsys, "bound", "--kind", "c", "--snr-db", "0", "--nt", "2")
    assert rc == 2 and "--nt and --nr" in err
    assert run_cli(capsys, "offset", "--kind", "advantage-at-snr", "--T", "10")[0] == 2
    rc, _, err = run_cli(capsys, "bound", "--kind", "c", "--snr-db", "1e5")
    assert rc == 2 and "overflows" in err
    rc, _, err = run_cli(capsys, "sweep", "--kind", "fig1", "--T-grid", "4,2")
    assert rc == 2 and "strictly increasing" in err
    # offsets that do not use the SNR echoed it, nan included, in their snr_db column
    for argv in (
        ("offset", "--kind", "advantage-asymptotic", "--T", "2", "--snr-db", "nan"),
        ("offset", "--kind", "single-pilot", "--T", "4", "--snr-db", "1e400"),
        ("sweep", "--kind", "fig1", "--snr-db-list", "0,nan"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "" and "not a finite number" in err
    # a flag the kind does not use was ignored, or labelled a single-antenna
    # row nt=3, or echoed beside the searched tau_star, and an empty grid
    # ran the default one
    for argv in (
        ("offset", "--kind", "single-pilot", "--T", "10", "--nt", "3"),
        ("offset", "--kind", "true-capacity-gap", "--T", "10", "--nt", "3"),
        ("optimize-pilots", "--T", "10", "--snr-db", "10", "--nt", "2", "--which", "j2"),
        ("optimize-pilots", "--T", "10", "--snr-db", "10", "--nt", "1", "--which", "j2"),
        ("offset", "--kind", "advantage-at-snr", "--T", "10", "--snr-db", "10", "--nt", "1"),
        ("offset", "--kind", "single-pilot", "--T", "10", "--nt", "1"),
        ("offset", "--kind", "true-capacity-gap", "--T", "10", "--nt", "1"),
        ("sweep", "--kind", "fig1", "--snr-db", "10"),
        ("sweep", "--kind", "fig2", "--snr-db", "10"),
        ("sweep", "--kind", "convergence", "--snr-db-list", "10"),
        ("sweep", "--kind", "fig1", "--T-grid=,"),
        ("sweep", "--kind", "convergence", "--T-grid=,"),
        ("sweep", "--kind", "fig2", "--snr-db-list=,"),
        ("bound", "--kind", "c", "--snr-db", "10", "--T", "10"),
        ("bound", "--kind", "c", "--snr-db", "10", "--tau", "1", "--nt", "2", "--nr", "2"),
        ("bound", "--kind", "is", "--T", "10", "--tau", "2", "--snr-db", "10"),
        ("offset", "--kind", "single-pilot", "--T", "10", "--snr-db", "10"),
        ("offset", "--kind", "advantage-asymptotic", "--T", "10", "--snr-db", "10"),
        ("offset", "--kind", "true-capacity-gap", "--T", "10", "--snr-db", "10"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        # the message names the flag at fault, not the antenna count
        assert ("--nt" in err) == ("--nt" in argv and "--nr" not in argv), (argv, err)
    # bound and optimize-pilots sample nothing and take no sampling flags
    for argv in (
        ("bound", "--kind", "c", "--snr-db", "10"),
        ("bound", "--kind", "c", "--snr-db", "10", "--nt", "12", "--nr", "12"),
        ("optimize-pilots", "--T", "10", "--snr-db", "10"),
        ("optimize-pilots", "--T", "13", "--snr-db", "10", "--nt", "12"),
    ):
        for flag in ("--samples=1000", "--seed=3", "--workers=2"):
            rc, out, err = run_cli(capsys, *argv, flag)
            assert rc == 2 and out == "", (argv, flag)
            assert "unrecognized arguments" in err and "Traceback" not in err, (argv, flag)


# argv without --format; the meta samples expected where the command
# samples, with --samples omitted
_REPORT_ARGV = {
    "bound": (("bound", "--kind", "c", "--snr-db", "10", "--nt", "12", "--nr", "12"), None),
    "optimize-pilots": (("optimize-pilots", "--T", "10", "--snr-db", "10", "--nt", "2"), None),
    "offset": (("offset", "--kind", "true-capacity-gap", "--T", "10"), None),
    "sweep": (("sweep", "--kind", "fig1", "--T-grid", "2,4"), None),
    "validate": (("validate", "--seed", "3"), DEFAULT_SCALAR_SAMPLES),
}


@pytest.mark.parametrize("command", sorted(_REPORT_ARGV))
def test_report_formats(capsys, monkeypatch, command):
    # one emitter serves every command; this checks what differs per command
    calls = []

    def small_validate(cfg):
        # the resolved cfg is recorded; the run itself uses few samples
        calls.append((cfg, original(replace(cfg, samples=2000))))
        return calls[-1][1]

    original = sweeps.validate_all
    monkeypatch.setattr(sweeps, "validate_all", small_validate)
    argv, samples = _REPORT_ARGV[command]
    outs = {}
    for fmt in ("text", "csv", "json"):
        rc, outs[fmt], err = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 0 and err == ""
    doc = json.loads(outs["json"])
    meta = doc["meta"]
    assert meta["command"] == command and meta["format"] == "json"
    assert len(doc["rows"]) == outs["csv"].count("\n") - 1
    assert meta.get("samples") == samples
    assert (outs["text"] == outs["csv"]) == (command == "sweep")
    if command == "validate":
        cfg, report = calls[0]
        assert cfg.samples == samples and cfg.seed == 3
        assert meta["passed"] is report.passed and meta["max_abs_z"] == report.max_abs_z
        # a saved run names the generator its seed keys
        assert meta["bit_generator"] == BIT_GENERATOR == "SFC64"
        assert outs["text"] == report.render()
    else:
        assert not calls and "passed" not in meta and "bit_generator" not in meta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--kind", "j1", "--T", "10", "--tau", "1"),
        ("bound", "--kind", "j2", "--T", "10", "--tau", "1"),
        ("bound", "--kind", "is", "--T", "10"),
        ("optimize-pilots", "--T", "10", "--which", "j1"),
        ("optimize-pilots", "--T", "10", "--which", "j2"),
        ("bound", "--kind", "j2", "--T", "10", "--tau", "2", "--nt", "2", "--nr", "2"),
        ("bound", "--kind", "is", "--T", "10", "--nt", "2", "--nr", "2"),
        ("optimize-pilots", "--T", "10", "--nt", "2"),
        ("sweep", "--kind", "convergence"),
    ],
)
def test_snr_times_blocklength_overflow_exit_code(capsys, argv):
    # at 3080 dB, snr*T overflows: j2 printed -inf, the j2 search nan
    rc, out, err = run_cli(capsys, *argv, "--snr-db", "3080")
    assert rc == 2 and out == ""
    assert err.startswith("error: snr*T overflows") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("antennas", [(), ("1", "2"), ("2", "1"), ("2", "2"), ("8", "8")])
def test_separate_bound_vanishing_snr_exit_code(capsys, antennas):
    # at -1700 dB, snr^2 underflows and the effective SNR is 0: the exact
    # mimo paths divided by it, the scalar one warned
    ant = ("--nt", antennas[0], "--nr", antennas[1]) if antennas else ()
    rc, out, err = run_cli(capsys, "bound", "--kind", "is", "--T", "10", *ant, "--snr-db", "-1700")
    assert rc == 2 and out == ""
    assert err.startswith("error: effective SNR at tau=") and err.count("\n") == 1


_HUGE_T = str(10**15)


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--kind", "is", "--T", _HUGE_T, "--snr-db", "10"),
        ("optimize-pilots", "--T", _HUGE_T, "--snr-db", "10"),
        ("bound", "--kind", "is", "--nt", "2", "--nr", "2", "--T", _HUGE_T, "--snr-db", "10"),
        ("bound", "--kind", "j1", "--T", _HUGE_T, "--tau", "1", "--snr-db", "10"),
        ("sweep", "--kind", "fig1", "--T-grid", f"2,{_HUGE_T}"),
    ],
)
def test_huge_blocklength_exit_code(capsys, argv):
    # each fails at one up-front allocation of petabytes (the pilot counts
    # or the eps_k orders of a block), so nothing is allocated
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("T", [10**9, 10**15])
def test_offset_at_a_huge_blocklength(capsys, T):
    # the least lane root takes O(log T) Newton solves and holds no lanes
    argv = ("offset", "--kind", "advantage-at-snr", "--T", str(T), "--snr-db", "0", "--format", "json")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    # the separate bound's training loss, about 1/sqrt(T), sets the
    # offset at long blocks: 4.72e-4 dB at T = 10^9
    value_db = json.loads(out)["rows"][0]["value_units"] * 10.0 * math.log10(2.0)
    assert value_db == pytest.approx(14.93 / math.sqrt(T), rel=1e-2)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_worker_count_exit_code(capsys, workers):
    # validate is the one command that samples; it checks --workers,
    # which changes nothing (the samplers choose their own threads)
    rc, out, err = run_cli(capsys, "validate", "--samples", "2000", "--workers", workers)
    assert rc == 2 and out == "" and err == f"error: workers must be >= 1, got {workers}\n"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc, out, _ = run_cli(
        capsys, "bound", "--kind", "c", "--snr-db", "10",
        "--format", "csv", "--out", str(path),
    )
    assert rc == 0 and out == ""
    rc, stdout_version, _ = run_cli(capsys, "bound", "--kind", "c", "--snr-db", "10",
                                    "--format", "csv")
    assert path.read_text() == stdout_version


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pilotbounds", "offset", "--kind", "single-pilot", "--T", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.2507 dB\n"


def test_cli_import_loads_no_scipy():
    code = "import sys, pilotbounds.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_thread_pool():
    # the Monte Carlo layer imports concurrent.futures when it first pools
    code = "import sys, pilotbounds.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_loads_no_numpy_random():
    # numpy imports numpy.random lazily (about 14 ms); the samplers look
    # their bit generator up by name at the first draw
    code = "import sys, pilotbounds.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_parser_is_built_once_and_reused(capsys):
    # the first main call builds the parser, not the import
    code = "import pilotbounds.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr
    # a call that exits 2 leaves the parser as a fresh one for the next call
    good = ("bound", "--kind", "c", "--snr-db", "10", "--format", "json")
    cli._build_parser.cache_clear()
    alone = run_cli(capsys, *good)
    cli._build_parser.cache_clear()
    for bad in (("bound", "--kind", "c", "--snr-db", "nan"), ("validate", "--workers", "x"), ("sweep",)):
        assert run_cli(capsys, *bad)[0] == 2
    assert run_cli(capsys, *good) == alone
    assert cli._build_parser.cache_info().misses == 1


def test_failed_computation_exit_code(capsys, monkeypatch):
    # a target of 100 bits: the separate bound crosses it nowhere within +/-60 dB
    monkeypatch.setattr(siso, "joint_bound_j2", lambda p: 100.0)
    rc, out, err = run_cli(
        capsys, "offset", "--kind", "advantage-at-snr", "--T", "2", "--snr-db", "-97.5"
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: offset saturated") and err.count("\n") == 1


def test_unwritable_out_exit_code(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(capsys, "sweep", "--kind", "fig1", "--T-grid", "2,4", "--out", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def _csv(lists):
    return lists.map(lambda vs: ",".join(map(str, vs)))


# Values small enough that one call takes well under a second and a few
# MB: T <= 64, at most 4096 samples, 2 workers, at most 12 antennas.
# Half the antenna counts are 10 to 12, where C_{t,r} takes the decimal
# Laguerre sum.
_ANTENNAS = st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=10, max_value=12))
_VALUES = {
    "--T": st.integers(min_value=2, max_value=64),
    "--tau": st.integers(min_value=0, max_value=63),
    "--snr-db": st.floats(min_value=-150.0, max_value=150.0),
    "--nt": _ANTENNAS,
    "--nr": _ANTENNAS,
    "--which": st.sampled_from(["j1", "j2"]),
    # valid grids only (sorted, distinct, >= 2 points); _HOSTILE has the bad ones
    "--T-grid": _csv(
        st.lists(st.integers(min_value=2, max_value=64), min_size=2, max_size=5, unique=True).map(sorted)
    ),
    "--snr-db-list": _csv(st.lists(st.floats(min_value=-150.0, max_value=150.0), min_size=1, max_size=5)),
    "--samples": st.sampled_from([100, 1000, 4096]),
    "--seed": st.integers(min_value=0, max_value=2**64 - 1),
    "--workers": st.sampled_from([1, 2]),
    "--format": st.sampled_from(["text", "csv", "json"]),
    "--out": st.sampled_from(["report.out"]),
}
# out-of-range or malformed values, at most one per call
_HOSTILE = {
    "--T": [-1, 0, 1],
    "--tau": [-1, 64],
    "--snr-db": ["nan", "inf", "-inf", "1e5", "-400", "3080", "x"],
    "--nt": [-1, 0],
    "--nr": [-1, 0],
    "--which": ["zz"],
    "--T-grid": ["-2,4", "0", "8,4", "4,4", "2.5", "4", ""],
    "--snr-db-list": ["nan", "1e5", "x", ""],
    "--samples": [-1, 99],
    "--seed": [-1, 2**64],
    "--workers": [-1, 0],
    "--format": ["xml"],
    "--out": ["missing/report.out"],
    "--kind": ["zz"],
}
_KINDS = {
    "bound": ["c", "is", "j1", "j2"],
    "offset": ["advantage-asymptotic", "advantage-at-snr", "single-pilot", "true-capacity-gap"],
    "sweep": ["fig1", "fig2", "convergence"],
}
# (flags every call carries, groups of flags drawn in or out together);
# --samples is always given where it exists, because the default takes
# a second per call
_COMMAND_FLAGS = {
    "bound": (("--kind", "--snr-db"), (("--T",), ("--tau",), ("--nt", "--nr"))),
    "optimize-pilots": (("--T", "--snr-db"), (("--which",), ("--nt",))),
    "offset": (("--kind", "--T"), (("--snr-db",), ("--nt",))),
    "sweep": (("--kind",), (("--T-grid",),)),
    "validate": (("--samples",), (("--seed",), ("--workers",))),
}
# the SNR flag each sweep kind takes; it rejects the other one
_SWEEP_SNR_FLAG = {"fig1": "--snr-db-list", "fig2": "--snr-db-list", "convergence": "--snr-db"}
# a convergence grid must span two decades: its last point is 100x the
# largest one drawn, so T stays <= 6400 (a few ms per call)
_CONVERGENCE_T_GRID = _csv(
    st.lists(st.integers(min_value=2, max_value=64), min_size=1, max_size=4, unique=True).map(
        lambda vs: sorted(vs) + [100 * max(vs)]
    )
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    kind = draw(st.sampled_from(_KINDS[command])) if command in _KINDS else None
    if command == "sweep":
        optional += ((_SWEEP_SNR_FLAG[kind],),)
    flags = list(required)
    for group in optional + (("--format",), ("--out",)):
        if draw(st.booleans()):
            flags.extend(group)
    if draw(st.integers(0, 9)) == 0:  # now and then any flag, known to the command or not
        flags.append(draw(st.sampled_from(sorted(_VALUES))))
    values = {flag: kind if flag == "--kind" else draw(_VALUES[flag]) for flag in flags}
    if kind == "convergence" and "--T-grid" in values:
        values["--T-grid"] = draw(_CONVERGENCE_T_GRID)
    if draw(st.booleans()):
        flag = draw(st.sampled_from(flags))
        values[flag] = draw(st.sampled_from(_HOSTILE[flag]))
    return [command] + [f"{flag}={value}" for flag, value in values.items()]


_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, argv):
    # every outcome is an exit code the README lists, never a traceback,
    # and a successful run prints no non-finite number
    out_dir = tmp_path_factory.mktemp("fuzz")
    argv = [a.replace("--out=", f"--out={out_dir}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
