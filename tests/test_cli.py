"""Command line front end: formats, exit codes, determinism, atomic output."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igaspectra import ConfigurationError, NumericError, pipeline
from igaspectra.analysis import ExactSpectrum, eigenvalue_errors
from igaspectra.cli import build_parser, main

from oracles import render_rows_reference

ROOT = pathlib.Path(__file__).parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_spectrum_row_count_and_schema_3d(capsys, tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--dim", "3", "--degree", "4",
                 "--elements", "20", "--out", str(out)])
    assert code == 0
    header, rows = csv_rows(out.read_text())
    assert header == ["rank", "rank_fraction", "lambda_exact",
                      "lambda_approx", "relative_error"]
    assert len(rows) == (20 + 4 - 2)**3  # 22^3 = 10648 modes
    assert rows[0][0] == "1"
    assert float(rows[-1][1]) == pytest.approx(1.0)


def test_spectrum_smallest_possible_problem(capsys):
    code, out, _ = run(capsys, "spectrum", "--dim", "1", "--degree", "1",
                       "--elements", "2", "--quadrature", "gauss",
                       "--penalty", "off")
    assert code == 0
    header, rows = csv_rows(out)
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(np.pi**2, rel=1e-12)
    # closed form for one interior hat function: 24 (1 - cos(pi/2)) / (2 + cos(pi/2))
    assert float(rows[0][3]) == pytest.approx(12.0, rel=1e-13)


def test_convergence_csv_has_rate_row(capsys):
    code, out, _ = run(capsys, "convergence", "--dim", "1", "--degree", "3",
                       "--elements", "5,10,20")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "n_elements" and header[1] == "h"
    assert len(rows) == 4  # three meshes plus the fitted-rate row
    rate_row = rows[-1]
    assert rate_row[0] == "rate" and rate_row[1] == ""
    rate = float(rate_row[header.index("lambda_rel_error_mode1")])
    assert rate == pytest.approx(8.03, abs=0.1)


def test_convergence_saturated_columns_are_labelled(capsys):
    code, out, _ = run(capsys, "convergence", "--dim", "1", "--degree", "5",
                       "--elements", "5,10,20")
    assert code == 0
    header, rows = csv_rows(out)
    rate_row = rows[-1]
    assert rate_row[header.index("lambda_rel_error_mode1")] == "saturated"
    assert float(rate_row[header.index("h1_error_mode1")]) == pytest.approx(
        5.16, abs=0.1)


def test_convergence_respects_mode_selection(capsys):
    code, out, _ = run(capsys, "convergence", "--dim", "2", "--degree", "3",
                       "--elements", "3,6,12", "--modes", "1,2,5")
    assert code == 0
    header, _ = csv_rows(out)
    assert "lambda_rel_error_mode5" in header
    assert "lambda_rel_error_mode6" not in header
    assert not any(h.startswith("h1_") for h in header)  # 1D only


def test_condition_summary_row(capsys):
    code, out, _ = run(capsys, "condition", "--dim", "1", "--degree", "3",
                       "--elements", "100")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "lambda_min"
    row = dict(zip(header, map(float, rows[0])))
    assert row["lambda_min"] == pytest.approx(np.pi**2, rel=1e-3)
    assert row["reduction_percent"] == pytest.approx(32.17, abs=0.5)
    assert row["rho"] == pytest.approx(1.47, abs=0.05)


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "convergence", "--dim", "1", "--degree", "3",
                       "--elements", "5,10,20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "rows", "rates"}
    assert doc["config"] == {"command": "convergence", "dim": 1, "degree": 3,
                             "elements": [5, 10, 20], "quadrature": "blended",
                             "penalty": "on", "modes": [1, 6], "format": "json"}
    assert len(doc["rows"]) == 3
    assert doc["rates"]["lambda_rel_error_mode1"] == pytest.approx(8.03, abs=0.1)
    # identical experiment, identical parsed content
    code, out2, _ = run(capsys, "convergence", "--dim", "1", "--degree", "3",
                        "--elements", "5,10,20", "--format", "json")
    assert json.loads(out2) == doc


def test_identical_runs_produce_identical_bytes(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["spectrum", "--dim", "2", "--degree", "3",
                     "--elements", "10", "--out", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _reference_text(argv):
    """CLI text from row dicts built one mode at a time, rendered field by field."""
    args = build_parser().parse_args(argv)
    config = {"command": args.command, "dim": args.dim, "degree": args.degree,
              "elements": list(args.elements), "format": args.format}
    if args.command != "condition":  # condition fixes both schemes itself
        config.update(quadrature=args.quadrature, penalty=args.penalty)
    if args.command == "convergence":
        config["modes"] = list(args.modes)
    rates = None
    if args.command == "spectrum":
        spec = pipeline.solve_nd(args.dim, args.degree, args.elements[0],
                                 args.quadrature, args.penalty == "on")
        rep = eigenvalue_errors(spec, ExactSpectrum(args.dim))
        rows = [{"rank": int(rep.ranks[i]),
                 "rank_fraction": float(rep.rank_fraction[i]),
                 "lambda_exact": float(rep.exact[i]),
                 "lambda_approx": float(rep.approx[i]),
                 "relative_error": float(rep.relative_errors[i])}
                for i in range(len(rep.ranks))]
    elif args.command == "convergence":
        rows, fitted = pipeline.convergence_table(
            args.dim, args.degree, args.elements, args.modes, args.quadrature,
            args.penalty == "on")
        rates = {k: ("saturated" if v is None else v) for k, v in fitted.items()}
    else:
        rep = pipeline.condition_summary(args.dim, args.degree, args.elements[0])
        rows = [{"lambda_min": rep.lambda_min,
                 "lambda_max": rep.lambda_max,
                 "lambda_max_treated": rep.lambda_max_treated,
                 "gamma": rep.gamma,
                 "gamma_treated": rep.gamma_treated,
                 "rho": rep.rho,
                 "reduction_percent": rep.reduction_percent}]
    return render_rows_reference(rows, args.format, rates, config)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "1", "--degree", "3", "--elements", "12"],
    ["spectrum", "--dim", "1", "--degree", "7", "--elements", "1"],
    ["spectrum", "--dim", "2", "--degree", "4", "--elements", "6",
     "--quadrature", "gauss", "--penalty", "off"],
    ["spectrum", "--dim", "2", "--degree", "7", "--elements", "1"],
    ["spectrum", "--dim", "3", "--degree", "3", "--elements", "5"],
    ["spectrum", "--dim", "3", "--degree", "7", "--elements", "1"],
    ["convergence", "--dim", "1", "--degree", "5", "--elements", "5,10,20"],
    ["convergence", "--dim", "1", "--degree", "3", "--elements", "5,10,20,40",
     "--modes", "1,2"],
    ["convergence", "--dim", "2", "--degree", "3", "--elements", "3,6,12",
     "--modes", "1,2,5"],
    ["convergence", "--dim", "3", "--degree", "4", "--elements", "4,8,16",
     "--modes", "1"],
    ["condition", "--dim", "1", "--degree", "3", "--elements", "50"],
    ["condition", "--dim", "2", "--degree", "5", "--elements", "20"],
    ["condition", "--dim", "3", "--degree", "7", "--elements", "10"],
])
def test_output_bytes_match_row_dict_reference(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == _reference_text(argv)


def test_byte_reference_covers_a_saturated_rate(capsys):
    argv = ["convergence", "--dim", "1", "--degree", "5", "--elements", "5,10,20"]
    assert run(capsys, *argv)[1].split("\n")[-2].count(",saturated") == 1
    assert '"saturated"' in _reference_text(argv + ["--format", "json"])


def test_output_file_is_replaced_atomically(tmp_path, monkeypatch):
    out = tmp_path / "result.csv"
    out.write_text("stale content\n")
    out.chmod(0o640)
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
    argv = ["condition", "--dim", "1", "--degree", "2", "--elements", "10", "--out"]
    old_umask = os.umask(0o022)
    try:
        assert main(argv + [str(out)]) == 0
        assert main(argv + [str(tmp_path / "new.csv")]) == 0
        os.umask(0o002)
        assert main(argv + [str(tmp_path / "shared.csv")]) == 0
    finally:
        os.umask(old_umask)
    assert "stale" not in out.read_text()
    assert out.read_text().startswith("lambda_min")
    assert len(synced) == 3  # every file reaches the disk before its rename
    # the modes `> path` gives: an existing file keeps its own, a new one
    # gets 0o666 less the umask
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"result.csv": 0o640, "new.csv": 0o644, "shared.csv": 0o664}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "4"],
    ["spectrum", "--degree", "8"],
    ["spectrum", "--degree", "0"],
    ["convergence", "--elements", "5,10"],
    ["spectrum", "--elements", "5,10"],
    ["condition", "--elements", "4,8"],
    ["spectrum", "--elements", "0"],
    ["convergence", "--elements", "5,10,20", "--modes", "0"],
    ["convergence", "--elements", "5,10,20", "--modes", ""],
    ["spectrum", "--quadrature", "exotic"],
    ["spectrum", "--penalty", "maybe"],
    ["spectrum", "--format", "yaml"],
    ["convergence", "--elements", "5,5,5"],
])
def test_invalid_configurations_exit_2_without_output(argv, capsys, tmp_path):
    out = tmp_path / "never.csv"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "configuration error" in err
    assert not out.exists()


def test_numeric_failures_exit_3(capsys, monkeypatch):
    from igaspectra import cli

    def boom(cfg):
        raise NumericError("synthetic solver breakdown")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", boom)
    code, _, err = run(capsys, "spectrum", "--dim", "1", "--degree", "2",
                       "--elements", "5")
    assert code == 3
    assert "numerical error" in err


def test_memory_error_exits_3_without_output(capsys, monkeypatch, tmp_path):
    from igaspectra import cli

    def boom(cfg):
        raise MemoryError("synthetic allocation failure")

    monkeypatch.setitem(cli._RUNNERS, "condition", boom)
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "condition", "--dim", "3", "--degree", "3",
                            "--elements", "5", "--out", str(out))
    assert code == 3
    assert "out of memory" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_memory_error_without_message_is_named(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pipeline, "spectrum_rows", boom)
    code, stdout, err = run(capsys, "spectrum", "--dim", "1", "--elements", "5")
    assert (code, stdout, err) == (3, "", "out of memory: an allocation failed\n")


def test_unwritable_output_path_exits_3(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "spectrum", "--dim", "1", "--degree", "2",
                       "--elements", "5", "--out", str(target))
    assert code == 3
    assert "i/o error" in err


def test_mode_beyond_resolution_is_a_config_error(capsys):
    # 4 elements at degree 2 resolve 4 modes; mode 6 cannot be tracked
    code, _, err = run(capsys, "convergence", "--dim", "1", "--degree", "2",
                       "--elements", "4,8,16")
    assert code == 2
    assert "configuration error" in err


def test_mesh_without_unknowns_is_refused(capsys):
    message = "degree 1 on 1 element(s) has no interior unknowns"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        pipeline.solve_1d(1, 1)
    for command, elements in (("spectrum", "1"), ("condition", "1"),
                              ("convergence", "1,2,3")):
        code, out, err = run(capsys, command, "--degree", "1", "--elements", elements)
        assert (code, out, err) == (2, "", f"configuration error: {message}\n")


# one command line per check the parser or the library makes, each
# changing one flag (or a command and its flags) of a valid baseline
INVALID_COMMAND_LINES = [
    pytest.param(["inspect"], id="command"),
    pytest.param([], id="no-command"),
    pytest.param(["spectrum", "--dim", "4"], id="dim"),
    pytest.param(["spectrum", "--dim", "two"], id="bad-int"),
    pytest.param(["spectrum", "--degree", "8"], id="degree"),
    pytest.param(["spectrum", "--elements", ""], id="no-mesh"),
    pytest.param(["spectrum", "--elements", "0"], id="mesh-size"),
    pytest.param(["convergence", "--elements", "4,8"], id="two-meshes"),
    pytest.param(["convergence", "--elements", "8,4,16"], id="unordered-meshes"),
    pytest.param(["spectrum", "--elements", "4,8"], id="one-mesh"),
    pytest.param(["spectrum", "--quadrature", "exotic"], id="quadrature"),
    pytest.param(["spectrum", "--penalty", "maybe"], id="penalty"),
    pytest.param(["convergence", "--elements", "4,8,16", "--modes", ""], id="no-modes"),
    pytest.param(["convergence", "--elements", "4,8,16", "--modes", "0"], id="mode-rank"),
    pytest.param(["spectrum", "--format", "yaml"], id="format"),
    pytest.param(["convergence", "--elements", "4,8,x"], id="non-integer-list"),
    pytest.param(["spectrum", "--bogus", "1"], id="unknown-flag"),
]


@pytest.mark.parametrize("argv", INVALID_COMMAND_LINES)
def test_experiment_config_validation_is_exhaustive(argv, capsys, tmp_path):
    """Every refusal returns 2 through one path: no exit, no usage text."""
    out = tmp_path / "never.csv"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not out.exists()


SHARED_FLAGS = {"--dim", "--degree", "--elements", "--format", "--out"}
COMMAND_FLAGS = {"spectrum": SHARED_FLAGS | {"--quadrature", "--penalty"},
                 "convergence": SHARED_FLAGS | {"--quadrature", "--penalty", "--modes"},
                 "condition": SHARED_FLAGS}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--modes", "1"],
    ["condition", "--quadrature", "gauss"],
    ["condition", "--penalty", "off"],
    ["condition", "--modes", "1"],
])
def test_flags_a_command_does_not_read_are_refused(argv, capsys, tmp_path):
    out = tmp_path / "never.csv"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"configuration error: unrecognized arguments: {' '.join(argv[1:])}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_help_lists_exactly_the_command_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert flags == COMMAND_FLAGS[command] | {"--help"}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_runs_on_its_defaults(command, capsys):
    code, out, err = run(capsys, command)
    assert (code, err) == (0, "")
    assert out.count("\n") > 1


def _ints(lo, hi, min_size, max_size):
    """A comma-separated integer list, now and then with a non-integer token."""
    token = st.integers(lo, hi).map(str) | st.sampled_from(["abc", "1.5", "x"])
    return st.lists(token, min_size=min_size, max_size=max_size).map(",".join)


# the two crashes (exit 1) this property found: a band wider than the
# matrix in to_dense, and convergence with an empty --modes list; a rate
# fitted over one repeated mesh, which must be refused (exit 2); and
# malformed command lines, which argparse once refused by raising
# SystemExit out of main
@example(command="spectrum", dim=1, degree=4, elements="1", quadrature="blended",
         penalty="on", modes="1", fmt="csv", to_file=True, extra=[])
@example(command="convergence", dim=1, degree=3, elements="4,5,6",
         quadrature="gauss", penalty="off", modes="", fmt="json", to_file=False,
         extra=[])
@example(command="convergence", dim=1, degree=2, elements="5,5,5",
         quadrature="blended", penalty="on", modes="1", fmt="csv", to_file=True,
         extra=[])
@example(command="spectrum", dim=1, degree=3, elements="abc", quadrature="blended",
         penalty="on", modes="1", fmt="csv", to_file=True, extra=[])
@example(command="condition", dim=1, degree=3, elements="5", quadrature="blended",
         penalty="on", modes="1", fmt="csv", to_file=True, extra=["--bogus", "1"])
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["spectrum", "convergence", "condition"]),
       dim=st.integers(1, 3), degree=st.integers(0, 8),
       elements=_ints(0, 6, 1, 4), quadrature=st.sampled_from(["gauss", "blended"]),
       penalty=st.sampled_from(["on", "off"]), modes=_ints(0, 8, 0, 3),
       fmt=st.sampled_from(["csv", "json"]), to_file=st.booleans(),
       extra=st.sampled_from([[], [], ["--bogus", "1"], ["--verbose"]]))
def test_random_command_lines_exit_0_2_or_3(command, dim, degree, elements,
                                             quadrature, penalty, modes, fmt,
                                             to_file, extra):
    argv = [command, "--dim", str(dim), "--degree", str(degree),
            "--elements", elements, "--format", fmt]
    if "--quadrature" in COMMAND_FLAGS[command]:
        argv += ["--quadrature", quadrature, "--penalty", penalty]
    if "--modes" in COMMAND_FLAGS[command]:
        argv += ["--modes", modes]
    argv += extra
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.txt"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + (["--out", str(out)] if to_file else []))
        assert code in (0, 2, 3)
        if code == 2:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("configuration error: ")
        if to_file:
            assert out.exists() == (code == 0)
            assert os.listdir(tmp) == (["out.txt"] if code == 0 else [])


def test_traced_names_resolve():
    """Every name the benchmark tracer wraps exists in the package."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr_path, _ in tracer.SPANS:
        owner = importlib.import_module(f"igaspectra.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr_path}"


@pytest.mark.parametrize("name", [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_workload_passes_its_output_checks(name):
    """Each benchmark command line, run as the benchmark runs it (one BLAS
    thread), prints what the benchmark's own checks accept."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "igaspectra", *workload.argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    workloads.check_output(workload, done.stdout)  # raises CheckError on a bad output


def test_convergence_output_does_not_depend_on_the_blas_thread_count():
    """convergence solves its axis pencil on the subset path in every
    dimension, and its output is the same at one and two BLAS threads (the
    dense sygvd path's is not)."""
    for command in ("convergence --dim 1 --degree 7 --elements 100,200,400,800 --modes 1,6",
                    "convergence --dim 3 --degree 7 --elements 250,500,1000,2000"):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "igaspectra", *command.split()],
                                  env=env, capture_output=True, timeout=300)
            assert (done.returncode, done.stderr) == (0, b""), command
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize("command", [
    "convergence --dim 1 --degree 3 --elements 5,10,20",
    "condition --dim 3 --degree 3 --elements 10",
    "spectrum --dim 2 --degree 3 --elements 6",
])
def test_traced_run_prints_the_untraced_output(tmp_path, command):
    """The benchmark tracer runs each command and leaves its stdout unchanged."""
    root = pathlib.Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), "test",
         "--", *command.split()],
        cwd=tmp_path, env=env, capture_output=True, timeout=300)
    plain = subprocess.run([sys.executable, "-m", "igaspectra", *command.split()],
                           cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    names = {span[2] for span in json.loads(spans.read_text())["spans"]}
    assert "cli.main" in names
