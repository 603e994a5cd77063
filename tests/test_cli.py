"""Command-line harness: exit codes, file outputs, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from kernelval import cli, kernels, krr, pool, valuation
from kernelval.cli import grid_search, load_config, main
from kernelval.errors import InputError, SolverError
from kernelval.kernels import GaussExpKernel
from kernelval.market import BSConfig, GroundTruth, payoff_function
from kernelval.sampling import (MeasureSpec, build_training_set, content_hash,
                                draw_paths, training_set_to_csv)
from kernelval.valuation import ErrorReport

TINY = """
[market]
s0 = 1.0
sigma = 0.2
rate = 0.0
steps = 2
strike = 1.0
barrier = 2.24

[kernel]
family = gauss-exp
alphas = 0, 2
betas = 0, 0.15
lambdas = 1e-5, 1e-3

[sampling]
gamma = 0.45
n_train = 60
n_val = 20
n_test = 40
n_repeats = 2
mode = dual-unsorted

[ground_truth]
method = quadrature
n_inner = 500
nested_outer = 20
nested_inner = 5

[experiment]
master_seed = 77
payoffs = european_put

[fit]
alpha = 2
beta = 0.15
lambda = 1e-5
"""


TINY_DIAG = TINY + """
[diagnostics]
payoff = european_put
alpha = 2
beta = 0.15
lambda = 1e-3
n = 80
n_ref = 320
n_repeats = 4
conc_repeats = 8
eps = 0.01
clt_degree = 2
clt_lambda = 1e-3
clt_n = 200
clt_repeats = 12
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


def _run(*argv):
    return main(list(argv))


# lambda = 0 is refused in the middle of two of the three ridge paths
FAILING = TINY.replace("lambdas = 1e-5, 1e-3", "lambdas = 1e-3, 0, 1e-5")

# test paths in four row blocks, so that value_series_many can split them
FOUR_BLOCKS = TINY.replace("n_test = 40", f"n_test = {3 * kernels.BLOCK + 5}")


def test_grid_search_equals_per_point_fits():
    cfg = load_config(text=FAILING)
    pid = "european_put"
    grid = grid_search(cfg, payoff_function(cfg.market, pid))
    ts = cli._training_set(cfg, payoff_function(cfg.market, pid), "grid")
    val = draw_paths(cfg.nominal(), cfg.n_val, stream=("grid", pid, "val"),
                     seed=cfg.master_seed)
    truth = payoff_function(cfg.market, pid)(val)
    surface, failures = [], []
    for a, b, l in cfg.grid_points():
        try:
            est = krr.fit(ts, cfg.kernel_at(a, b), l, mode=cfg.mode)
        except SolverError as exc:
            surface.append((a, b, l, float("inf")))
            failures.append(((a, b, l), str(exc)))
            continue
        err = float(np.linalg.norm(krr.predict(est, val) - truth)) / np.linalg.norm(truth)
        surface.append((a, b, l, err))
    assert grid.surface == tuple(surface)
    assert grid.failures == tuple(failures)
    assert [p for p, _ in failures] == [(0.0, 0.15, 0.0), (2.0, 0.0, 0.0)]
    # the selected fit is the one a fresh refit gives
    assert content_hash(grid.training_set) == content_hash(ts)
    refit = krr.fit(ts, cfg.kernel_at(grid.alpha, grid.beta), grid.lam,
                    mode=cfg.mode, payoff_id=pid)
    assert krr.estimator_to_json(grid.estimator) == krr.estimator_to_json(refit)


def test_grid_search_builds_one_gram_per_pair(monkeypatch):
    # one worker, so that the pairs are fitted, and recorded, in grid order
    cfg = load_config(text=FAILING)
    square = []
    gram = kernels.gram

    def counting(spec, X, Y=None):
        out = gram(spec, X, Y)
        if out.shape == (cfg.n_train, cfg.n_train):
            square.append((spec.alpha, spec.beta))
        return out

    monkeypatch.setattr(kernels, "gram", counting)
    with pool.using(1):
        grid_search(cfg, payoff_function(cfg.market, "european_put"))
    assert square == [(0.0, 0.15), (2.0, 0.0), (2.0, 0.15)]


@pytest.mark.parametrize("command", ["grid-search", "table2", "figures"])
def test_grid_failures_reported_on_stderr(command, tmp_path, capsys):
    p = tmp_path / "failing.cfg"
    p.write_text(FAILING)
    out = tmp_path / "out"
    assert _run(command, "--config", str(p), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert f"{command} european_put: 2 of 9 grid points failed; first: " in err
    assert "dual fit: lambda = 0 refused" in err
    if command != "figures":
        with open(out / "grid_european_put.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "beta", "lambda", "rel_l2_error"]
        assert [r[3] for r in rows[1:]].count("inf") == 2


def test_no_command_or_unknown_flag_exit_1(capsys):
    assert _run() == 1
    assert _run("frobnicate") == 1
    assert _run("table2", "--no-such-flag") == 1
    capsys.readouterr()


def test_missing_config_exit_1(tmp_path, capsys):
    rc = _run("table2", "--config", str(tmp_path / "absent.cfg"))
    assert rc == 1
    assert "absent.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_1(threads, tiny_cfg, tmp_path, capsys):
    # pool.using(0) would mean every usable CPU: the flag is refused instead
    out = tmp_path / "out"
    assert _run("simulate", "--config", str(tiny_cfg), "--out", str(out),
                "--threads", threads) == 1
    captured = capsys.readouterr()
    assert "input error: threads must be at least 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_config_key_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[market]\nvolatility = 0.2\n")
    assert _run("table2", "--config", str(p)) == 1
    assert "volatility" in capsys.readouterr().err


def test_load_config_defaults_and_overrides(tiny_cfg):
    cfg = load_config(path=str(tiny_cfg))
    assert cfg.market.sigma == 0.2
    assert cfg.n_train == 60
    assert cfg.payoffs == ("european_put",)
    assert cfg.alphas == (0.0, 2.0)
    over = load_config(path=str(tiny_cfg), overrides={"n_train": 99})
    assert over.n_train == 99
    # the full grid drops the constant-kernel corner
    pts = cfg.grid_points()
    assert (0.0, 0.0, 1e-5) not in pts
    assert (0.0, 0.15, 1e-5) in pts
    assert len(pts) == 3 * 2  # (2*2 - 1) alpha-beta pairs x 2 lambdas


def test_simulate_produces_loadable_csv(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "sim"
    assert _run("simulate", "--config", str(tiny_cfg), "--out", str(out)) == 0
    cfg = load_config(path=str(tiny_cfg))
    ts = cli._training_set(cfg, payoff_function(cfg.market, "european_put"), "fit")
    assert ts.n == 60 and ts.T == 2
    assert (ts.weights > 0).all()
    assert ((out / "train_european_put.csv").read_bytes()
            == training_set_to_csv(ts).encode())
    capsys.readouterr()


def test_fit_then_value_roundtrip(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "fv"
    assert _run("fit", "--config", str(tiny_cfg), "--out", str(out)) == 0
    assert (out / "estimator_european_put.json").exists()
    assert _run("value", "--config", str(tiny_cfg), "--out", str(out)) == 0
    with open(out / "value_european_put.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "t", "value"]
    assert len(rows) == 1 + 40 * 3
    vals = np.array([float(r[2]) for r in rows[1:]]).reshape(40, 3)
    assert np.isfinite(vals).all()
    # time-0 value is path-independent
    assert np.ptp(vals[:, 0]) == 0.0
    capsys.readouterr()


def test_value_keeps_the_fit_record_in_its_manifest(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "fv"
    assert _run("fit", "--config", str(tiny_cfg), "--out", str(out)) == 0
    fit_doc = json.loads((out / "manifest.json").read_text())
    for _ in range(2):  # a second value run keeps the same record, not nested
        assert _run("value", "--config", str(tiny_cfg), "--out", str(out)) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "value"
        assert man["outputs"] == ["value_european_put.csv"]
        assert man["fit"] == fit_doc
    assert fit_doc["outputs"] == ["estimator_european_put.json",
                                  "train_european_put.csv"]
    assert fit_doc["payoff_evaluations"] == {"european_put": 60}
    capsys.readouterr()


def test_value_without_fit_exit_1(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "nofit"
    assert _run("value", "--config", str(tiny_cfg), "--out", str(out)) == 1
    assert "fit" in capsys.readouterr().err


def test_table2_outputs_and_manifest(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "t2"
    assert _run("table2", "--config", str(tiny_cfg), "--out", str(out)) == 0
    with open(out / "table2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["payoff", "estimator", "t", "mean_pct", "std_pct"]
    kinds = {(r[1], r[2]) for r in rows[1:]}
    assert ("kernel", "0") in kinds and ("nested-mc", "1") in kinds
    assert ("nested-mc", "2") not in kinds  # no terminal nested estimate
    man = json.loads((out / "manifest.json").read_text())
    for key in ("command", "package_version", "git_commit", "master_seed",
                "config", "payoff_evaluations", "outputs", "config_sha256"):
        assert key in man, key
    assert man["command"] == "table2"
    assert man["master_seed"] == 77
    assert "threads" not in man["config"]
    assert man["blas"]["threads"] in (1, "unpinned")
    for lib in man["blas"]["openblas"]:
        assert set(lib) == {"library", "version", "threads"}
    assert any(o.endswith("table2.csv") for o in man["outputs"])
    capsys.readouterr()


def test_reruns_are_bit_identical_and_thread_invariant(tiny_cfg, tmp_path,
                                                       capsys):
    outs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert _run("table2", "--config", str(tiny_cfg), "--out", str(out),
                    "--threads", threads) == 0
        outs[name] = {f: (out / f).read_bytes()
                      for f in sorted(os.listdir(out))}
    assert outs["a"] == outs["b"]
    assert outs["a"] == outs["c"]
    capsys.readouterr()


def test_nested_maps_share_one_pool(tiny_cfg, monkeypatch):
    # run_table2 maps payoffs over the pool, each grid_search maps its
    # (alpha, beta) pairs and value_series_many its row chunks: the inner
    # maps must run inline in the pool's workers
    alive, inner = [], []
    fit_path, series = krr.fit_path, valuation.value_series_many

    def spy(*args, **kwargs):
        alive.append(threading.active_count())
        return fit_path(*args, **kwargs)

    def series_spy(*args, **kwargs):
        inner.append(pool.workers())
        alive.append(threading.active_count())
        return series(*args, **kwargs)

    monkeypatch.setattr(krr, "fit_path", spy)
    monkeypatch.setattr(valuation, "value_series_many", series_spy)
    # test sample of four row blocks, so an outermost map would split it
    config = load_config(path=str(tiny_cfg),
                         overrides={"payoffs": ("european_put", "asian_put"),
                                    "n_test": 3 * kernels.BLOCK + 5})
    before = threading.active_count()
    with pool.using(2):
        cli.run_table2(config)
    assert inner and set(inner) == {1}
    assert alive and max(alive) <= before + 2


def test_value_honours_threads(tiny_cfg, tmp_path, monkeypatch, capsys):
    # split at --threads 2, inline at --threads 1
    tiny_cfg.write_text(FOUR_BLOCKS)
    out = tmp_path / "v"
    assert _run("fit", "--config", str(tiny_cfg), "--out", str(out)) == 0
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(1) or start(self))
    assert _run("value", "--config", str(tiny_cfg), "--out", str(out),
                "--threads", "1") == 0
    assert starts == []
    one = (out / "value_european_put.csv").read_bytes()
    assert _run("value", "--config", str(tiny_cfg), "--out", str(out),
                "--threads", "2") == 0
    assert starts == [1]
    assert (out / "value_european_put.csv").read_bytes() == one
    capsys.readouterr()


def test_split_value_process_is_thread_invariant(tiny_cfg, tmp_path, capsys):
    # figures' trajectories evaluate the value process on the test paths;
    # with more than two row blocks of them the pool splits the evaluation
    tiny_cfg.write_text(FOUR_BLOCKS)
    outs = {}
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        assert _run("figures", "--config", str(tiny_cfg), "--out", str(out),
                    "--threads", threads) == 0
        outs[threads] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        manifest = json.loads(outs[threads].pop("manifest.json"))
        manifest.pop("git_commit")
        outs[threads]["manifest.json"] = manifest
    assert "fig3_european_put.csv" in outs["1"]
    assert outs["1"] == outs["2"] == outs["3"]
    capsys.readouterr()


def test_two_payoff_grid_search_is_thread_invariant(tiny_cfg, tmp_path,
                                                    capsys):
    # grid-search runs its payoffs side by side on the pool
    tiny_cfg.write_text(TINY.replace("payoffs = european_put",
                                     "payoffs = european_put, asian_put"))
    outs, printed = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert _run("grid-search", "--config", str(tiny_cfg), "--out", str(out),
                    "--threads", threads) == 0
        printed[threads] = capsys.readouterr()
        outs[threads] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert sorted(outs["1"]) == ["grid_asian_put.csv", "grid_european_put.csv",
                                 "manifest.json"]
    assert outs["1"] == outs["2"]
    assert printed["1"] == printed["2"]
    assert printed["1"].out.index("european_put") < printed["1"].out.index("asian_put")


@pytest.mark.parametrize("command, old, new", [
    ("grid-search", "lambdas = 1e-5, 1e-3", "lambdas = nan, 1e-5"),
    ("grid-search", "lambdas = 1e-5, 1e-3", "lambdas = 1e-5, -1e-3"),
    ("fit", "lambda = 1e-5", "lambda = inf"),
    ("grid-search", "alphas = 0, 2", "alphas = nan, 2"),
    ("grid-search", "gamma = 0.45", "gamma = nan"),
])
def test_non_finite_or_negative_lambda_exit_1(command, old, new, tiny_cfg,
                                             tmp_path, capsys):
    # a NaN would win no comparison and be selected as the first grid point;
    # an infinite ridge fits the zero function.  A NaN alpha or gamma passes
    # a plain range test, so the config refuses it as non-finite.
    tiny_cfg.write_text(TINY.replace(old, new))
    out = tmp_path / "out"
    assert _run(command, "--config", str(tiny_cfg), "--out", str(out)) == 1
    captured = capsys.readouterr()
    key = new.split()[0].rstrip("s")
    message = ("lambda must be finite and nonnegative" if key == "lambda"
               else f"{key} must be finite")
    assert f"input error: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_seed_override_changes_results(tiny_cfg, tmp_path, capsys):
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert _run("grid-search", "--config", str(tiny_cfg), "--out", str(a)) == 0
    assert _run("grid-search", "--config", str(tiny_cfg), "--out", str(b),
                "--seed", "78") == 0
    ca = (a / "grid_european_put.csv").read_bytes()
    cb = (b / "grid_european_put.csv").read_bytes()
    assert ca != cb
    capsys.readouterr()


def test_payoff_flag_restricts_menu(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "pp"
    assert _run("simulate", "--config", str(tiny_cfg), "--out", str(out),
                "--payoff", "asian_put") == 0
    files = set(os.listdir(out))
    assert "train_asian_put.csv" in files
    assert "train_european_put.csv" not in files
    assert _run("simulate", "--config", str(tiny_cfg), "--out", str(out),
                "--payoff", "bermudan_put") == 1
    capsys.readouterr()


def test_figures_row_counts(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "figs"
    assert _run("figures", "--config", str(tiny_cfg), "--out", str(out)) == 0
    with open(out / "fig3_european_put.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trajectory_id", "t", "rel_gap"]
    assert len(rows) == 1 + 40 * 3  # n_test paths, T+1 times
    with open(out / "fig2_european_put.csv") as fh:
        lam_rows = list(csv.reader(fh))
    assert len(lam_rows) == 1 + 2  # one row per lambda
    capsys.readouterr()


def test_csv_writes_cells_with_str_and_floats_as_repr():
    text = cli._csv(("name", "t", "value"),
                    [("kernel", 0, 0.1), ("nested-mc", 1, float("inf")),
                     ("kernel", 2, 1e-05)])
    assert text == "name,t,value\nkernel,0,0.1\nnested-mc,1,inf\nkernel,2,1e-05\n"


def test_error_report_csv():
    rep = ErrorReport(
        payoff_id="european_put",
        estimator="kernel",
        times=(0, 1, 2),
        mean_pct=np.array([0.1, 0.2, 0.3]),
        std_pct=np.array([0.01, 0.02, 0.03]),
    )
    rows = list(csv.reader(io.StringIO(cli._error_reports_csv([rep]))))
    assert rows[0] == ["payoff", "estimator", "t", "mean_pct", "std_pct"]
    assert len(rows) == 4
    assert rows[1][:3] == ["european_put", "kernel", "0"]
    assert float(rows[3][3]) == 0.3


def test_error_reports_csv_stacks_estimators():
    mk = lambda est_name, times: ErrorReport(
        payoff_id="asian_put", estimator=est_name, times=times,
        mean_pct=np.ones(len(times)), std_pct=np.zeros(len(times)))
    text = cli._error_reports_csv([mk("kernel", (0, 1, 2)), mk("nested-mc", (0, 1))])
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 3 + 2
    assert rows[4][1] == "nested-mc"


def test_trajectory_csv_layout():
    cfg = BSConfig()
    gt = GroundTruth(cfg, "european_put")
    ts = build_training_set(MeasureSpec(gamma=0.45, d=1, T=2, seed=100),
                            payoff_function(cfg, "european_put"), 150,
                            "european_put", stream=("vfit",))
    est = krr.fit(ts, GaussExpKernel(alpha=4.0, beta=0.3, d=1, T=2, gamma=0.45),
                  1e-5)
    X = draw_paths(MeasureSpec(gamma=0.0, d=1, T=2, seed=2), 7)
    rows = list(csv.reader(io.StringIO(cli._trajectory_csv(est, gt, X))))
    assert rows[0] == ["trajectory_id", "t", "rel_gap"]
    assert len(rows) == 1 + 7 * 3
    assert rows[1][:2] == ["0", "0"]
    assert rows[-1][:2] == ["6", "2"]


def test_nested_mc_budget_in_manifest(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "nm"
    assert _run("nested-mc", "--config", str(tiny_cfg), "--out", str(out)) == 0
    man = json.loads((out / "manifest.json").read_text())
    # n_repeats x outer x inner payoff calls
    assert man["payoff_evaluations"]["european_put"] == 2 * 20 * 5
    capsys.readouterr()


def test_diagnostics_small_run(tmp_path, capsys):
    p = tmp_path / "diag.cfg"
    p.write_text(TINY_DIAG)
    out = tmp_path / "diag"
    rc = _run("diagnostics", "--config", str(p), "--out", str(out))
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 4
    assert "FAIL" not in text
    names = {"diag_mse_bound.json", "diag_concentration.json",
             "diag_clt.json", "diag_robustness.json", "manifest.json"}
    assert names <= set(os.listdir(out))
    doc = json.loads((out / "diag_mse_bound.json").read_text())
    assert doc["violated"] is False
    # counted at each check's payoff oracle: the shared 100k probe once,
    # under mse_bound, the CLT's quadrature grid once, and nothing for the
    # robustness check, which fits the perturbation alone
    man = json.loads((out / "manifest.json").read_text())
    assert man["payoff_evaluations"] == {
        "reference": 320, "mse_bound": 4 * 80 + 100_000,
        "concentration": 8 * 80, "clt": 12 * 200 + 100_000 + 1025**2,
        "robustness": 0}


def test_diagnostics_leaves_scipy_stats_unloaded(tmp_path):
    # the CLT computes its Anderson-Darling test without scipy.stats
    p = tmp_path / "diag.cfg"
    p.write_text(TINY_DIAG)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; from kernelval.cli import main; "
            "rc = main(sys.argv[1:]); print('scipy.stats' in sys.modules); "
            "sys.exit(rc)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        q for q in (src, os.environ.get("PYTHONPATH")) if q)}
    run = subprocess.run([sys.executable, "-c", code, "diagnostics", "--config",
                          str(p), "--out", str(tmp_path / "out"), "--threads", "1"],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_diagnostics_is_thread_invariant(tmp_path, monkeypatch, capsys):
    # at --threads 2 the reference's probe prediction, then the checks' map
    # (the three checks on the reference fit and the CLT experiment), each
    # start one helper thread; every report, diag_clt.json included, is the
    # same bytes at either count
    p = tmp_path / "diag.cfg"
    p.write_text(TINY_DIAG)
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(1) or start(self))
    outs = {}
    for threads, helpers in (("1", 0), ("2", 2)):
        out = tmp_path / threads
        del starts[:]
        assert _run("diagnostics", "--config", str(p), "--out", str(out),
                    "--threads", threads) == 0
        assert len(starts) == helpers
        outs[threads] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert sorted(outs["1"]) == ["diag_clt.json", "diag_concentration.json",
                                 "diag_mse_bound.json", "diag_robustness.json",
                                 "manifest.json"]
    assert outs["1"] == outs["2"]
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [
    ("n", "0"), ("n_ref", "0"), ("n_repeats", "0"), ("conc_repeats", "0"),
    ("clt_n", "0"), ("clt_repeats", "0"), ("n_repeats", "-3"),
    ("lambda", "0"), ("clt_lambda", "0"), ("clt_lambda", "-1"),
    ("lambda", "inf"), ("clt_lambda", "nan"), ("payoff", "bermudan_put"),
    ("eps", "nan"), ("alpha", "nan"),
])
def test_diagnostics_config_rejects_bad_values(key, value, tmp_path,
                                                          capsys):
    p = tmp_path / "diag.cfg"
    head, diag = TINY_DIAG.split("[diagnostics]")
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in diag.splitlines()]
    p.write_text(head + "[diagnostics]" + "\n".join(lines) + "\n")
    out = tmp_path / "diag"
    assert _run("diagnostics", "--config", str(p), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "input error" in captured.err and key in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()
    # the check is the config's own, so every command refuses the file
    assert _run("simulate", "--config", str(p), "--out", str(out)) == 1
    capsys.readouterr()


# the paths each command's payoff oracles price on TINY (n_train 60, n_val 20,
# n_repeats 2, nested 20 x 5); the ground truth is not counted
TINY_BUDGETS = {
    "simulate": 60, "fit": 60, "value": 60,
    "grid-search": 60 + 20, "figures": 60 + 20,
    # the grid, the repeats' training and validation samples, nested MC
    "table2": 60 + 20 + 2 * (60 + 20) + 2 * 20 * 5,
    "nested-mc": 2 * 20 * 5,
}


@pytest.mark.parametrize("command", ["simulate", "fit", "value", "grid-search",
                                     "table2", "figures", "nested-mc",
                                     "diagnostics"])
def test_manifest_lists_exactly_the_files_written(command, tmp_path, capsys):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_DIAG if command == "diagnostics" else TINY)
    out = tmp_path / "out"
    if command == "value":
        assert _run("fit", "--config", str(p), "--out", str(out)) == 0
    before = set(os.listdir(out)) if out.exists() else set()
    assert _run(command, "--config", str(p), "--out", str(out)) == 0
    written = set(os.listdir(out)) - before - {"manifest.json"}
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == command
    assert man["outputs"] == sorted(written)
    if command != "diagnostics":  # test_diagnostics_small_run checks its budget
        assert man["payoff_evaluations"] == {"european_put": TINY_BUDGETS[command]}
    capsys.readouterr()


# every (section, key) of the config table, set away from its default:
# (raw text, accessor on the loaded config, expected value)
EVERY_KEY = {
    ("market", "s0"): ("1.5", lambda c: c.market.s0, 1.5),
    ("market", "sigma"): ("0.3", lambda c: c.market.sigma, 0.3),
    ("market", "rate"): ("0.01", lambda c: c.market.rate, 0.01),
    ("market", "steps"): ("3", lambda c: c.market.T, 3),
    ("market", "strike"): ("1.1", lambda c: c.market.strike, 1.1),
    ("market", "barrier"): ("2.5", lambda c: c.market.barrier, 2.5),
    ("kernel", "alphas"): ("1, 3", lambda c: c.alphas, (1.0, 3.0)),
    ("kernel", "betas"): ("0.1 0.2", lambda c: c.betas, (0.1, 0.2)),
    ("kernel", "lambdas"): ("1e-4", lambda c: c.lambdas, (1e-4,)),
    ("sampling", "gamma"): ("0.4", lambda c: c.gamma, 0.4),
    ("sampling", "n_train"): ("70", lambda c: c.n_train, 70),
    ("sampling", "n_val"): ("21", lambda c: c.n_val, 21),
    ("sampling", "n_test"): ("41", lambda c: c.n_test, 41),
    ("sampling", "n_repeats"): ("3", lambda c: c.n_repeats, 3),
    ("sampling", "mode"): ("dual-sorted", lambda c: c.mode, "dual-sorted"),
    ("ground_truth", "method"): ("mc", lambda c: c.gt_method, "mc"),
    ("ground_truth", "n_inner"): ("501", lambda c: c.n_inner_gt, 501),
    ("ground_truth", "nested_outer"): ("21", lambda c: c.nested_outer, 21),
    ("ground_truth", "nested_inner"): ("6", lambda c: c.nested_inner, 6),
    ("experiment", "master_seed"): ("78", lambda c: c.master_seed, 78),
    ("experiment", "payoffs"): ("asian_put, european_call", lambda c: c.payoffs,
                                ("asian_put", "european_call")),
    ("fit", "alpha"): ("3", lambda c: c.fit_alpha, 3.0),
    ("fit", "beta"): ("0.2", lambda c: c.fit_beta, 0.2),
    ("fit", "lambda"): ("1e-4", lambda c: c.fit_lambda, 1e-4),
    ("diagnostics", "payoff"): ("asian_call", lambda c: c.diag["payoff"],
                                "asian_call"),
    ("diagnostics", "alpha"): ("3", lambda c: c.diag["alpha"], 3.0),
    ("diagnostics", "beta"): ("0.2", lambda c: c.diag["beta"], 0.2),
    ("diagnostics", "lambda"): ("1e-4", lambda c: c.diag["lambda"], 1e-4),
    ("diagnostics", "n"): ("81", lambda c: c.diag["n"], 81),
    ("diagnostics", "n_ref"): ("330", lambda c: c.diag["n_ref"], 330),
    ("diagnostics", "n_repeats"): ("5", lambda c: c.diag["n_repeats"], 5),
    ("diagnostics", "conc_repeats"): ("9", lambda c: c.diag["conc_repeats"], 9),
    ("diagnostics", "eps"): ("0.02", lambda c: c.diag["eps"], 0.02),
    ("diagnostics", "clt_degree"): ("2", lambda c: c.diag["clt_degree"], 2),
    ("diagnostics", "clt_lambda"): ("1e-4", lambda c: c.diag["clt_lambda"], 1e-4),
    ("diagnostics", "clt_n"): ("201", lambda c: c.diag["clt_n"], 201),
    ("diagnostics", "clt_repeats"): ("13", lambda c: c.diag["clt_repeats"], 13),
    ("output", "directory"): ("elsewhere", lambda c: c.out_dir, "elsewhere"),
}


def test_every_config_key_reaches_its_field():
    sections = {}
    for (section, key), (raw, _, _) in EVERY_KEY.items():
        sections.setdefault(section, []).append(f"{key} = {raw}")
    text = "\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items())
    cfg = load_config(text=text)
    default = cli.ExperimentConfig()
    for (section, key), (_, get, expected) in EVERY_KEY.items():
        assert get(default) != expected, (section, key)
        assert get(cfg) == expected, (section, key)
        assert type(get(cfg)) is type(expected), (section, key)
    # the only valid family is the default, so a wrong one must reach the check
    with pytest.raises(InputError, match="gauss-poly"):
        load_config(text="[kernel]\nfamily = gauss-poly\n")
    assert set(EVERY_KEY) | {("kernel", "family")} == set(cli._KEYS)
