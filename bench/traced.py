"""Run one readmit CLI command in this process with its layers traced.

Usage: python3 bench/traced.py SPANS.json -- <readmit arguments>

Each public function of the pipeline modules is wrapped from outside,
under the name its caller holds (readmit.evaluate.encode and
readmit.cli.encode are separate call sites of features.encode). A
wrapper records a span (id, layer name, call site, start, end, parent)
and reads counts from the call's arguments and return value. Spans stay
in memory and are written to SPANS.json once, when the command ends,
with the measured cost of one span. The exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, layer: str, site: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": layer, "site": site,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, layer: str, count=None) -> None:
        fn = getattr(module, attr)
        site = f"{module.__name__}.{attr}"

        def traced(*args, **kwargs):
            result = self.call(layer, site, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)


# --- counters: read from arguments and return values -------------------------

def count_raw(c, args, rows):
    c["cohort.raw_rows"] += len(rows)


def count_unify(c, args, result):
    c["cohort.profiles_out"] += len(result.profiles)
    c["cohort.removed_not_admitted"] += result.removed_not_admitted
    c["cohort.conflicts"] += len(result.warnings)
    c["cohort.open_episodes"] += sum(
        not ep.closed for p in result.profiles for ep in p.episodes)


def count_encode(c, args, result):
    c["features.encode_calls"] += 1
    c["features.rows_encoded"] += result.dataset.n_rows


def count_smote(c, args, out):
    data = args[0]
    c["resample.smote_calls"] += 1
    n_syn = out.n_rows - data.n_rows
    c["resample.synthetic_rows"] += n_syn
    if n_syn:
        m = int((data.labels == 1).sum())
        c["resample.knn_pairs"] += m * m


def count_gbm(c, args, model):
    c["models.fit_gbm_calls"] += 1
    c["models.gbm_nodes"] += sum(t.n_nodes for t in model.trees)


def count_logistic(c, args, model):
    c["models.fit_logistic_calls"] += 1
    c["models.irls_iters"] += model.n_iter
    c["models.irls_nonconverged"] += not model.converged


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap every call site the CLI reaches, by the holder's name."""
    cli, cohort, synthgen, evaluate, models = (
        mods[k] for k in ("cli", "cohort", "synthgen", "evaluate", "models"))
    for attr in ("read_demographics", "read_exits", "read_incidents"):
        tracer.wrap(cohort, attr, "cohort.read_raw", count_raw)
    tracer.wrap(cohort, "unify", "cohort.unify", count_unify)
    tracer.wrap(cohort, "write_profiles", "cohort.write_profiles")
    tracer.wrap(cohort, "read_profiles", "cohort.read_profiles")
    tracer.wrap(synthgen, "generate", "synthgen.generate")
    tracer.wrap(synthgen, "emit_raw_files", "synthgen.emit")
    for holder in (cli, evaluate):
        tracer.wrap(holder, "encode", "features.encode", count_encode)
        tracer.wrap(holder, "standardize", "features.standardize")
        tracer.wrap(holder, "smote", "resample.smote", count_smote)
    tracer.wrap(evaluate, "stratified_folds", "resample.folds")
    tracer.wrap(evaluate, "sweep", "evaluate.sweep")
    tracer.wrap(evaluate, "cv_evaluate", "evaluate.cv_evaluate")
    for attr in ("confusion", "roc_curve", "auc"):
        tracer.wrap(evaluate, attr, "evaluate.metrics")
    tracer.wrap(models, "fit_gbm", "models.fit", count_gbm)
    tracer.wrap(models, "fit_logistic", "models.fit", count_logistic)
    for attr in ("predict_proba_gbm", "predict_proba_logistic"):
        tracer.wrap(models, attr, "models.predict")


def span_cost(n: int = 2000) -> float:
    """Seconds one traced call adds to a call that does nothing."""
    noop = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        tracer.call("noop", "noop", noop)
    return max(time.perf_counter() - t0 - bare, 0.0) / n


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", "import readmit.cli",
                      importlib.import_module, "readmit.cli")
    install(tracer, {name: importlib.import_module(f"readmit.{name}")
                     for name in ("cli", "cohort", "synthgen", "evaluate",
                                  "models")})
    code = tracer.call("cli.main", f"readmit {cli_args[0]}", cli.main, cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"command": cli_args[0], "exit": code, "spans": tracer.spans,
                   "counts": tracer.counts, "span_cost_s": span_cost()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
