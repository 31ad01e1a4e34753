import json
import subprocess
import sys

import pytest

from pilotbounds import cli, sweeps


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
        capsys, "bound", "--kind", "c", "--snr-db", "10", "--format", "json", "--seed", "9"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["seed"] == 9
    assert doc["meta"]["command"] == "bound"
    assert doc["rows"][0]["value"] == pytest.approx(2.9065148084148045, rel=1e-12)
    assert doc["rows"][0]["samples_used"] == 0


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


def test_validate_failure_exit_code(capsys, monkeypatch):
    original = sweeps.validate_all
    def corrupted(cfg, workers=1):
        report = original(cfg, workers=workers)
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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_worker_count_exit_code(capsys, workers):
    rc, _, err = run_cli(capsys, "validate", "--samples", "2000", "--workers", workers)
    assert rc == 2 and "workers must be >= 1" in err


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
