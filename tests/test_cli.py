"""Command line behavior: flags, outputs, exit codes, determinism."""

import csv
import dataclasses
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import dpirls.cli as cli_module
import dpirls.experiment as experiment_module
from dpirls.cli import build_parser, main, summary_path_for
from dpirls.experiment import ExperimentGrid

SRC = Path(__file__).resolve().parent.parent / "src"

FAST = [
    "--d", "3", "--n", "100,300", "--iters", "3", "--seeds", "2",
    "--mechanisms", "non-private,cdp-lap",
]


def _mask_wall_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[5] = "-"
    return rows


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--d", "--n", "--epsilon", "--iters", "--weight-cap", "--delta-f",
                 "--mechanisms", "--seeds", "--base-seed", "--out-csv", "--out-svg"):
        assert flag in out


def test_default_flag_values():
    args = build_parser().parse_args([])
    assert args.d == 10
    assert args.n_values == (500, 1000, 2000, 5000, 10000)
    assert args.epsilon == 0.9
    assert args.iterations == 10
    assert args.weight_cap == 100.0
    assert args.delta_f == 1e-6
    assert args.n_seeds == 20
    assert args.base_seed == 0


def test_grid_flags_fill_the_grid_by_field_name(tmp_path, monkeypatch):
    seen = []

    def capture(grid):
        seen.append(grid)
        return []

    monkeypatch.setattr(cli_module, "run_grid", capture)
    argv = [
        "--d", "3", "--n", "100,300", "--epsilon", "0.5", "--iters", "4",
        "--weight-cap", "7", "--delta-f", "1e-5", "--mechanisms", "cdp-gau,non-private",
        "--seeds", "2", "--base-seed", "5",
    ]
    assert main(argv + ["--out-csv", str(tmp_path / "r.csv")]) == 0
    expected = ExperimentGrid(
        n_values=(100, 300), d=3, epsilon=0.5, iterations=4, weight_cap=7.0, delta_f=1e-5,
        mechanisms=("cdp-gau", "non-private"), n_seeds=2, base_seed=5,
    )
    fields = dataclasses.fields(ExperimentGrid)
    assert all(getattr(expected, f.name) != f.default for f in fields)
    assert seen == [expected]
    # each field is the dest of exactly one flag
    names = sorted(f.name for f in fields)
    dests = [action.dest for action in build_parser()._actions]
    assert sorted(dest for dest in dests if dest in names) == names


def test_end_to_end_run(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    out_svg = tmp_path / "r.svg"
    code = main(FAST + ["--out-csv", str(out_csv), "--out-svg", str(out_svg)])
    assert code == 0
    captured = capsys.readouterr()
    assert "mean_loglik" in captured.out
    assert captured.err == ""

    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(experiment_module.RESULTS_HEADER)
    assert len(rows) == 1 + 2 * 2 * 2  # header + mechanisms * sizes * seeds
    assert all(r[6] == "ok" for r in rows[1:])

    summary = summary_path_for(str(out_csv))
    with open(summary, newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == list(experiment_module.SUMMARY_HEADER)
    assert len(srows) == 1 + 4

    root = ET.parse(out_svg).getroot()
    assert root.tag.endswith("svg")


def test_output_bytes_stable_across_thread_counts(tmp_path, monkeypatch):
    paths = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"{name}.csv"
        monkeypatch.setenv("DP_IRLS_THREADS", threads)
        assert main(FAST + ["--out-csv", str(out)]) == 0
        paths.append(out)
    # wall-time column is measured, everything else must match bytewise
    assert _mask_wall_time(paths[0]) == _mask_wall_time(paths[1])
    s0 = summary_path_for(str(paths[0]))
    s1 = summary_path_for(str(paths[1]))
    assert Path(s0).read_bytes() == Path(s1).read_bytes()


def test_output_bytes_stable_across_blas_thread_counts(tmp_path):
    # A small grid only: its products stay below the sizes at which OpenBLAS
    # splits work across threads (README, "Command-line harness"); large
    # products may differ in their low bits between thread counts.  N =
    # 10000 makes the README grid's largest moment products, 9e5
    # multiply-adds on 9000 training rows, just under the gemm limit of
    # solver.compute_moments.  BLAS reads its thread count at start-up, so
    # each run is its own process.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "DP_IRLS_THREADS"}
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "dpirls.cli", "--d", "10", "--n", "500,5000,10000", "--seeds", "2",
             "--iters", "10", "--weight-cap", "5", "--delta-f", "1e-5", "--out-csv", str(out)],
            env={**env, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((_mask_wall_time(out), Path(summary_path_for(str(out))).read_bytes()))
    assert outputs[0] == outputs[1]


def test_unknown_mechanism_is_an_argparse_error(tmp_path, capsys):
    # The parser only splits the list; ExperimentGrid refuses the label.
    out_csv = tmp_path / "x.csv"
    assert main(["--mechanisms", "nope", "--out-csv", str(out_csv)]) == 2
    assert "unknown mechanism" in capsys.readouterr().err
    assert not out_csv.exists()


def test_invalid_grid_returns_two(tmp_path, capsys):
    code = main(FAST + ["--seeds", "0", "--out-csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n_seeds" in capsys.readouterr().err


def test_tiny_n_rejected_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    def no_generate(spec, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment_module, "generate", no_generate)
    out_csv = tmp_path / "tiny.csv"
    code = main(["--d", "2", "--n", "500,4", "--seeds", "1", "--out-csv", str(out_csv)])
    assert code == 2
    assert "n=4 leaves no test rows" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bad_threads_env_var_rejected_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    def no_generate(spec, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment_module, "generate", no_generate)
    for value in ("0", "abc"):
        monkeypatch.setenv("DP_IRLS_THREADS", value)
        out_csv = tmp_path / f"threads_{value}.csv"
        assert main(FAST + ["--out-csv", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dpirls: ") and "DP_IRLS_THREADS" in err, err
        assert not out_csv.exists()


def test_failed_cells_reported_and_exit_one(tmp_path, monkeypatch, capsys):
    real_generate = experiment_module.generate

    def flaky_generate(spec, **kwargs):
        if spec.n == 300:
            raise RuntimeError("injected failure")
        return real_generate(spec, **kwargs)

    monkeypatch.setattr(experiment_module, "generate", flaky_generate)
    out_csv = tmp_path / "f.csv"
    code = main(FAST + ["--out-csv", str(out_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cells failed" in err
    assert "N=300" in err
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    bad = [r for r in rows if r[1] == "300"]
    assert bad and all(r[6].startswith("error:") for r in bad)
    good = [r for r in rows if r[1] == "100"]
    assert good and all(r[6] == "ok" for r in good)


def test_chart_skipped_when_no_cell_succeeds(tmp_path, monkeypatch, capsys):
    def failing_generate(spec, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(experiment_module, "generate", failing_generate)
    out_csv = tmp_path / "f.csv"
    out_svg = tmp_path / "f.svg"
    code = main(FAST + ["--out-csv", str(out_csv), "--out-svg", str(out_svg)])
    assert code == 1
    captured = capsys.readouterr()
    assert "no finite mean to plot" in captured.err
    assert "8 of 8 cells failed" in captured.err
    assert "Traceback" not in captured.err
    assert "mean_loglik" in captured.out and "chart:" not in captured.out
    assert not out_svg.exists()
    assert out_csv.exists() and Path(summary_path_for(str(out_csv))).exists()


def test_import_loads_no_scipy():
    # scipy is a test and benchmark dependency only; the package must not load it.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, dpirls, dpirls.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_loads_no_xml_http_pool_or_json():
    # None of these is on the default path: chart text is escaped in
    # charts.py, the thread pool is opt-in and nothing in the package
    # uses json.
    # The urllib package itself is allowed, because pathlib (via numpy)
    # loads urllib.parse; urllib.request is what the xml chain adds.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    banned = ("xml", "urllib.request", "http", "email", "concurrent.futures", "json")
    code = (
        "import sys, dpirls, dpirls.cli; "
        f"print(sorted(m for m in sys.modules "
        f"if any(m == b or m.startswith(b + '.') for b in {banned!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_module_entry_point_exists():
    import dpirls.__main__  # noqa: F401
