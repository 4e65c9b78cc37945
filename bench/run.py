"""End-to-end benchmark of the readmit CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep-gbm --seed 1 --seconds 55 --trace 0

One client drives the CLI in a closed loop: each pass runs
synth -> unify -> sweep -> train -> report as subprocesses, one at a
time, each starting after the previous one exits. Inputs come from the
workload seed only (a cohort spec plus `synth --seed`; for `ingest` a
seeded edit of the raw trio). Every command's output is checked, and
each pass's artifacts must be byte-identical to the first pass's.

--trace 0 prints the end-to-end metrics: each command's mean wall time
over the passes, the mean of the set-up samples and the peak child RSS.
--trace 1 runs the same untraced loop and then one traced pass, in which
every command runs in-process under bench/traced.py; it prints per-layer
times and counts and the tracing overhead against the untraced means.

Times are means over repeats of identical work. On a shared 2-core VM
the CPU speed changes by 20-50% for seconds to minutes at a time, and
the fast spells can be rare: the minimum of a run then depends on
whether the window caught one, while the mean follows the share of slow
time in the window, which varies less from run to run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details (machine, samples, artifact digests, AUCs, spans) go to
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run must end within 180 s; no command may outlive this budget.
RUN_BUDGET_S = 165.0
MIN_PASSES = 2  # the determinism check needs two passes
SETUP_SAMPLES_PER_PASS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One input family: a cohort spec and the commands a user runs on it.

    Every workload runs all five commands, so each reports every
    end-to-end metric; cohort size and model options choose the layer
    that dominates. Both use the bundled spec's minority rate and the
    CLI's default model options. One pass takes 8-11 s on a 2-core
    machine, so a 55 s window holds five or six.
    """

    name: str
    n: int
    sweep: tuple[str, ...]
    train: tuple[str, ...]
    ratios: tuple[str, ...]
    inject: bool = False  # seeded linkage edge cases (ingest only)
    setup_reads_profiles: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # GBM tree growth is ~90% of sweep and ~80% of train; encode and
        # SMOTE are a few percent, so a faster tree builder shows here alone.
        Workload(
            name="sweep-gbm", n=2000,
            sweep=("--model", "gbm", "--folds", "3"),
            train=("--model", "gbm", "--ratio", "1.0"),
            ratios=("original", "1.0"),
        ),
        # Raw CSV write (synth) and read + linkage (unify) at scale, with
        # non-admitted, conflicting and exit-less rows injected; then
        # logistic regression on SMOTE-oversampled folds, with no GBM. On
        # oversampled data IRLS stops unconverged at max_iter for every
        # seed, so the fit does the same work on each; at the original
        # ratio it takes 10 to 100 steps, depending on the seed.
        Workload(
            name="ingest", n=20000,
            sweep=("--model", "logistic", "--folds", "2"),
            train=("--model", "logistic", "--ratio", "0.5"),
            ratios=("0.5",),
            inject=True, setup_reads_profiles=False,
        ),
    )
}
TINY_N = 300

# Shares of the ingest cohort edited into the raw trio before unify.
NOT_ADMITTED_SHARE = 0.02
CONFLICT_SHARE = 0.01
DROPPED_EXIT_SHARE = 0.03
RACE_LABELS = ("White", "Black", "Hispanic", "Other")

COMMANDS = ("synth", "unify", "sweep", "train", "report")
# Which command wrote each artifact, for blaming a determinism failure.
ARTIFACT_OWNER = {"raw": "synth", "profiles.csv": "unify",
                  "profiles.csv.warnings.log": "unify", "sweep": "sweep",
                  "fit": "train"}


class Deadline(Exception):
    pass


@dataclasses.dataclass
class Op:
    """One attempted operation: a CLI command or a set-up sample."""

    name: str
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


# --- processes ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(name: str, argv: list[str], log_dir: Path, deadline: float) -> Op:
    """Run argv to completion; wall time from spawn to exit, rusage of it."""
    out_path = log_dir / f"{name}.out"
    with open(out_path, "wb") as out, open(log_dir / f"{name}.err", "wb") as err:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline(name)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(name, wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"))
    if time.monotonic() >= deadline:
        op.problems.append("killed at the run deadline")
    return op


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "readmit.cli", *args]


# --- inputs -----------------------------------------------------------------

def write_spec(n: int, path: Path) -> dict:
    spec = json.loads((SRC / "readmit" / "spec_default.json").read_text())
    spec["n"] = n
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return spec


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def inject_edge_cases(raw: Path, n: int, seed: int) -> dict:
    """Edit the synthesized trio so unify meets every linkage path.

    Adds non-admitted copies of existing rows, gives one row of some
    multi-episode clients a different race, and drops one exit row of
    some clients. Returns the counts unify must then report.
    """
    rng = random.Random(seed)
    header, demo = _read_csv(raw / "demographics.csv")
    col = {name: i for i, name in enumerate(header)}
    n_not_admitted = round(NOT_ADMITTED_SHARE * n)
    n_conflicts = round(CONFLICT_SHARE * n)
    n_dropped = round(DROPPED_EXIT_SHARE * n)

    rows_by_key: dict[tuple, list[int]] = {}
    for i, row in enumerate(demo):
        rows_by_key.setdefault(tuple(row[:3]), []).append(i)
    multi = sorted(k for k, idx in rows_by_key.items() if len(idx) > 1)
    for key in rng.sample(multi, n_conflicts):
        row = demo[rng.choice(rows_by_key[key])]
        row[col["race"]] = rng.choice(
            [r for r in RACE_LABELS if r != row[col["race"]]])
    for i in rng.sample(range(len(demo)), n_not_admitted):
        copy = list(demo[i])
        copy[col["admitted"]] = "false"
        demo.append(copy)
    _write_csv(raw / "demographics.csv", header, demo)

    exit_header, exits = _read_csv(raw / "exits.csv")
    exits_by_key: dict[tuple, list[int]] = {}
    for i, row in enumerate(exits):
        exits_by_key.setdefault(tuple(row[:3]), []).append(i)
    drop = {rng.choice(exits_by_key[key])
            for key in rng.sample(sorted(exits_by_key), n_dropped)}
    _write_csv(raw / "exits.csv", exit_header,
               [row for i, row in enumerate(exits) if i not in drop])
    return {"removed": n_not_admitted, "warnings": n_conflicts,
            "open_episodes": n_dropped}


# --- output checks ----------------------------------------------------------

def check_synth(op: Op, raw: Path, spec: dict) -> None:
    try:
        manifest = json.loads((raw / "cohort_manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        op.problems.append(f"manifest unreadable: {exc}")
        return
    if manifest.get("n_profiles") != spec["n"]:
        op.problems.append(f"n_profiles {manifest.get('n_profiles')} != {spec['n']}")
    want_pos = int(round(spec["n"] * spec["minority_rate"]))
    if manifest.get("n_positive") != want_pos:
        op.problems.append(f"n_positive {manifest.get('n_positive')} != {want_pos}")


def _stdout_count(stdout: str, key: str) -> int | None:
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            try:
                return int(line.split(":", 1)[1].split()[0])
            except (IndexError, ValueError):
                return None
    return None


def check_unify(op: Op, profiles: Path, n: int, expected: dict) -> int:
    """Counts printed by unify and read back from profiles.csv."""
    got = {"profiles": _stdout_count(op.stdout, "profiles"),
           "removed": _stdout_count(op.stdout, "removed"),
           "warnings": _stdout_count(op.stdout, "warnings")}
    want = {"profiles": n, "removed": expected["removed"],
            "warnings": expected["warnings"]}
    try:
        header, rows = _read_csv(profiles)
        got["rows"] = len(rows)
        got["open_episodes"] = sum(
            int(r[header.index("n_open_episodes")]) for r in rows)
    except (OSError, ValueError, IndexError) as exc:
        op.problems.append(f"profiles.csv unreadable: {exc}")
        return 0
    want["rows"] = n
    want["open_episodes"] = expected["open_episodes"]
    op.problems.extend(f"{k} {got[k]} != {want[k]}" for k in want
                       if got[k] != want[k])
    return got["rows"]


def check_sweep(op: Op, out: Path, n_profiles: int, labels: list[str],
                auc_ref: dict) -> dict[str, float]:
    try:
        rows = json.loads((out / "report.json").read_text())["rows"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        op.problems.append(f"report.json unreadable: {exc}")
        return {}
    got_labels = [row.get("ratio") for row in rows]
    if got_labels != labels:
        op.problems.append(f"ratio order {got_labels} != {labels}")
        return {}
    aucs = {}
    for row in rows:
        label = row["ratio"]
        tp, fn, fp, tn = (row[k] for k in ("tp", "fn", "fp", "tn"))
        if tp + fn + fp + tn != n_profiles:
            op.problems.append(f"{label}: confusion total != {n_profiles}")
            continue
        if not math.isclose(row["sensitivity"], tp / (tp + fn), rel_tol=1e-12):
            op.problems.append(f"{label}: sensitivity != tp/(tp+fn)")
        if not math.isclose(row["accuracy"], (tp + tn) / n_profiles,
                            rel_tol=1e-12):
            op.problems.append(f"{label}: accuracy != (tp+tn)/total")
        ref = auc_ref.get(label)
        if ref is None or not abs(row["auc"] - ref["auc"]) <= ref["tol"]:
            op.problems.append(f"{label}: auc {row['auc']:.4f} outside "
                               f"reference {ref}")
        if not (out / f"roc_{label}.csv").is_file():
            op.problems.append(f"roc_{label}.csv missing")
        aucs[label] = row["auc"]
    return aucs


def check_report(op: Op, labels: list[str]) -> None:
    lines = op.stdout.splitlines()
    header = lines[0].split() if lines else []
    if header != ["Ratio", *labels]:
        op.problems.append(f"report header {header} != {['Ratio', *labels]}")


def check_model(op: Op, model_path: Path, profiles_path: Path) -> None:
    """model.json loads and scores every profile with a probability."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from readmit import cohort, features, models

    try:
        model = models.load_model(model_path)
        profiles = cohort.read_profiles(profiles_path)
        std, _ = features.standardize(
            features.encode(profiles, features.FeatureSchema()).dataset)
        if isinstance(model, models.GbmModel):
            probs = models.predict_proba_gbm(model, std.matrix)
        else:
            probs = models.predict_proba_logistic(model, std.matrix)
    except Exception as exc:  # any failure of the program fails the check
        op.problems.append(f"model check raised {type(exc).__name__}: {exc}")
        return
    if probs.shape != (len(profiles),):
        op.problems.append(f"{probs.shape[0]} probabilities for "
                           f"{len(profiles)} profiles")
    if not (np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))):
        op.problems.append("probabilities not finite in [0, 1]")


def digests(pass_dir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(pass_dir.rglob("*")):
        if path.is_file() and path.parent.name != "logs":
            out[str(path.relative_to(pass_dir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


# --- one pass ---------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    ops: dict[str, Op]
    digests: dict[str, str]
    aucs: dict[str, float]
    dir: Path


def run_pass(wl: Workload, spec_path: Path, spec: dict, seed: int,
             pass_dir: Path, auc_ref: dict, deadline: float,
             traced_out: Path | None = None) -> Pass:
    """synth -> (inject) -> unify -> sweep -> train -> report, all checked.

    With traced_out, each command runs in-process under bench/traced.py
    and writes its spans to traced_out/<command>.json.
    """
    logs = pass_dir / "logs"
    logs.mkdir(parents=True)
    raw, profiles = pass_dir / "raw", pass_dir / "profiles.csv"
    sweep_out, fit_out = pass_dir / "sweep", pass_dir / "fit"
    labels = list(wl.ratios)
    s = str(seed)
    argv = {
        "synth": ["synth", "--spec", str(spec_path), "--seed", s, "-o", str(raw)],
        "unify": ["unify", *(str(raw / f) for f in (
            "demographics.csv", "exits.csv", "incidents.csv")),
            "-o", str(profiles)],
        "sweep": ["sweep", "--profiles", str(profiles), *wl.sweep,
                  "--ratios", ",".join(wl.ratios), "--seed", s,
                  "-o", str(sweep_out)],
        "train": ["train", "--profiles", str(profiles), *wl.train,
                  "--seed", s, "-o", str(fit_out)],
        "report": ["report", "--report", str(sweep_out / "report.json")],
    }
    ops: dict[str, Op] = {}
    aucs: dict[str, float] = {}
    n = spec["n"]
    expected = {"removed": 0, "warnings": 0, "open_episodes": 0}
    n_profiles = 0
    for cmd in COMMANDS:
        if traced_out is None:
            full = cli(*argv[cmd])
        else:
            full = [sys.executable, str(BENCH_DIR / "traced.py"),
                    str(traced_out / f"{cmd}.json"), "--", *argv[cmd]]
        op = ops[cmd] = spawn(cmd, full, logs, deadline)
        if op.exit_code != 0:
            op.problems.append(f"exit code {op.exit_code}")
            break
        if cmd == "synth":
            check_synth(op, raw, spec)
            if wl.inject:
                expected = inject_edge_cases(raw, n, seed)
        elif cmd == "unify":
            n_profiles = check_unify(op, profiles, n, expected)
        elif cmd == "sweep":
            aucs = check_sweep(op, sweep_out, n_profiles, labels, auc_ref)
        elif cmd == "train" and not (fit_out / "model.json").is_file():
            op.problems.append("model.json missing")
        elif cmd == "report":
            check_report(op, labels)
    return Pass(ops, digests(pass_dir), aucs, pass_dir)


def check_determinism(passes: list[Pass]) -> None:
    """Every pass must reproduce the first pass's artifacts byte for byte."""
    first = passes[0].digests
    for p in passes[1:]:
        for name in sorted(set(first) | set(p.digests)):
            if first.get(name) != p.digests.get(name):
                owner = ARTIFACT_OWNER[name.split("/")[0]]
                if owner in p.ops:
                    p.ops[owner].problems.append(f"{name} differs from pass 1")


def setup_sample(wl: Workload, profiles: Path, logs: Path, i: int,
                 deadline: float) -> Op:
    """A fresh process importing the CLI and loading the first input."""
    code = "import sys, readmit.cli\n"
    if wl.setup_reads_profiles:
        code += "from readmit.cohort import read_profiles\nread_profiles(sys.argv[1])\n"
    op = spawn(f"setup{i}", [sys.executable, "-c", code, str(profiles)],
               logs, deadline)
    if op.exit_code != 0:
        op.problems.append(f"exit code {op.exit_code}")
    return op


# --- tracing ----------------------------------------------------------------

TIMED_LAYERS = (
    "cli.import", "cohort.read_profiles", "cohort.read_raw", "cohort.unify",
    "cohort.write_profiles", "synthgen.generate", "synthgen.emit",
    "features.encode", "features.standardize", "resample.folds",
    "resample.smote", "models.fit", "models.predict", "evaluate.metrics",
)
COUNTS = (
    "cohort.raw_rows", "cohort.profiles_out", "cohort.removed_not_admitted",
    "cohort.conflicts", "cohort.open_episodes", "features.encode_calls",
    "features.rows_encoded", "resample.smote_calls", "resample.synthetic_rows",
    "resample.knn_pairs", "models.fit_gbm_calls", "models.gbm_nodes",
    "models.fit_logistic_calls", "models.irls_iters",
    "models.irls_nonconverged",
)
# Spans reported by self time: their duration minus their children's.
SELF_TIMED = {"evaluate.sweep": "evaluate.self",
              "evaluate.cv_evaluate": "evaluate.self", "cli.main": "cli.self"}
REPORTED_LAYERS = (*TIMED_LAYERS, "evaluate.self", "cli.self")


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Disjoint time per reported layer for one traced command.

    Spans nest strictly (one thread), so a span's self time is its
    duration minus its direct children's durations.
    """
    times = dict.fromkeys(REPORTED_LAYERS, 0.0)
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    for sp in spans:
        dur = sp["end"] - sp["start"]
        if sp["name"] in SELF_TIMED:
            times[SELF_TIMED[sp["name"]]] += dur - child_time[sp["id"]]
        else:
            times[sp["name"]] += dur
    return times


def trace_metrics(traced: Pass, traced_dir: Path, untraced_mean: dict,
                  ) -> tuple[dict, list[str]]:
    """Per-layer totals over the traced pass, and a per-command breakdown."""
    counts = dict.fromkeys(COUNTS, 0)
    totals = dict.fromkeys(REPORTED_LAYERS, 0.0)
    fit_durations = []
    span_cost = 0.0
    lines = []
    for cmd, op in traced.ops.items():
        payload = json.loads((traced_dir / f"{cmd}.json").read_text())
        times = layer_times(payload["spans"])
        for k, v in times.items():
            totals[k] += v
        for k, v in payload["counts"].items():
            counts[k] += v
        fit_durations += [sp["end"] - sp["start"] for sp in payload["spans"]
                          if sp["name"] == "models.fit"]
        span_cost += payload["span_cost_s"] * len(payload["spans"])
        times["interpreter start"] = op.wall_s - sum(times.values())
        shares = sorted(((v, k) for k, v in times.items() if v > 0),
                        reverse=True)
        lines.append(f"  {cmd}: wall {op.wall_s:.3f} s; " + ", ".join(
            f"{k} {v:.3f} s ({v / op.wall_s:.0%})" for v, k in shares[:6]))
    metrics = {f"{k}_s": {"value": v, "unit": "s"} for k, v in totals.items()}
    metrics["models.fit_median_s"] = {
        "value": statistics.median(fit_durations) if fit_durations else 0.0,
        "unit": "s"}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    # Two views of the tracing cost. The first compares one traced pass with
    # the untraced means, so it also holds any change of machine speed
    # during that pass; the second times the tracer's own work per span.
    traced_total = sum(op.wall_s for op in traced.ops.values())
    untraced_total = sum(untraced_mean[c] for c in traced.ops)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_total / untraced_total - 1.0), "unit": "%"}
    metrics["trace.span_cost_pct"] = {
        "value": 100.0 * span_cost / traced_total, "unit": "%"}
    lines.append(f"  tracing overhead: traced pass {traced_total:.3f} s vs "
                 f"sum of untraced means {untraced_total:.3f} s; the spans "
                 f"themselves cost {span_cost * 1e3:.3f} ms")
    return metrics, lines


# --- machine ----------------------------------------------------------------

def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


# --- main -------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: n=%d cohorts for the self-test" % TINY_N)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "readmit" / "cli.py").is_file():
        print(f"error: no readmit sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    n = TINY_N if args.size == "tiny" else wl.n
    auc_ref = json.loads((BENCH_DIR / "reference.json").read_text())[
        args.size][wl.name]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        return _run(args, wl, n, auc_ref, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, wl: Workload, n: int, auc_ref: dict, run_dir: Path,
         deadline: float) -> int:
    spec_path = run_dir / "spec.json"
    spec = write_spec(n, spec_path)
    setup_ops: list[Op] = []
    passes: list[Pass] = []
    notes: list[str] = []

    # Compile bytecode and warm the page cache; users pay this once.
    warm = spawn("warmup", [sys.executable, "-c", "import readmit.cli"],
                 run_dir, deadline)
    if warm.exit_code != 0:
        print("error: cannot import readmit.cli", file=sys.stderr)
        return 2

    # The closed loop fills the --seconds window with whole passes: a pass
    # starts only if a typical pass still ends inside the window.
    window_start = time.monotonic()
    pass_times: list[float] = []
    try:
        while len(passes) < MIN_PASSES or (
                time.monotonic() - window_start
                + statistics.median(pass_times) <= args.seconds):
            if pass_times and time.monotonic() + max(pass_times) > deadline:
                notes.append("stopped early: the next pass would pass the deadline")
                break
            t0 = time.monotonic()
            p = run_pass(wl, spec_path, spec, args.seed,
                         run_dir / f"pass{len(passes) + 1}", auc_ref, deadline)
            passes.append(p)
            if not all(op.ok for op in p.ops.values()):
                break
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setup_ops.append(setup_sample(
                    wl, p.dir / "profiles.csv", p.dir / "logs",
                    len(setup_ops), deadline))
            pass_times.append(time.monotonic() - t0)

        traced = None
        if args.trace and all(op.ok for p in passes for op in p.ops.values()):
            traced_dir = run_dir / "spans"
            traced_dir.mkdir()
            traced = run_pass(wl, spec_path, spec, args.seed,
                              run_dir / "traced", auc_ref, deadline, traced_dir)
    except Deadline as exc:
        notes.append(f"run deadline reached before {exc}")
        traced = None

    if not passes:
        print("error: no pass completed: " + "; ".join(notes), file=sys.stderr)
        return 1
    first = passes[0]
    if "train" in first.ops and first.ops["train"].ok:
        check_model(first.ops["train"], first.dir / "fit" / "model.json",
                    first.dir / "profiles.csv")
    check_determinism(passes + ([traced] if traced else []))

    all_ops = setup_ops + [op for p in passes for op in p.ops.values()]
    if traced:
        all_ops += traced.ops.values()
    attempted = len(all_ops)
    failed = sum(not op.ok for op in all_ops)
    complete = [p for p in passes if len(p.ops) == len(COMMANDS)]
    samples = {cmd: [p.ops[cmd].wall_s for p in complete] for cmd in COMMANDS}
    mean = {cmd: statistics.mean(v) for cmd, v in samples.items() if v}
    correct = (failed == 0 and len(complete) >= MIN_PASSES and bool(setup_ops)
               and (traced is not None or not args.trace) and not notes)

    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {wl.name}: n={n} seed={args.seed}; {len(complete)} passes, "
          f"{len(setup_ops)} set-up samples, closed loop, 1 client")
    for op in all_ops:
        for problem in op.problems:
            print(f"FAILED {op.name}: {problem}")
    for note in notes:
        print(f"NOTE {note}")
    print(f"error_rate: {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    for cmd, v in samples.items():
        if v:
            print(f"  {cmd:7s} {len(v)} samples: min {min(v):.4f} s, mean "
                  f"{mean[cmd]:.4f} s, max {max(v):.4f} s")

    if args.trace:
        if traced is None or not all(op.ok for op in traced.ops.values()):
            metrics, lines = {}, ["  traced pass did not complete"]
        else:
            metrics, lines = trace_metrics(traced, run_dir / "spans", mean)
        print("traced pass (layer time and share of each command's wall time):")
        print("\n".join(lines))
    elif complete:
        metrics = {f"{cmd}_s": {"value": mean[cmd], "unit": "s"}
                   for cmd in COMMANDS}
        metrics["setup_s"] = {
            "value": statistics.mean(op.wall_s for op in setup_ops),
            "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": max(op.rss_mb for p in complete for op in p.ops.values()),
            "unit": "MB"}
    else:
        metrics = {}
    for name, m in sorted(metrics.items()):
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")

    detail = {
        "workload": wl.name, "seed": args.seed, "n": n, "trace": args.trace,
        "machine": machine, "notes": notes, "aucs": first.aucs,
        "artifact_sha256": first.digests,
        "samples": samples,
        "setup_samples": [op.wall_s for op in setup_ops],
        "rss_mb": {cmd: [p.ops[cmd].rss_mb for p in complete] for cmd in COMMANDS},
        "metrics": metrics,
    }
    (WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
