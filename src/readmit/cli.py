"""Command-line entry points wiring the pipeline into reproducible runs.

Commands: synth (generate a raw CSV trio), unify (link raw CSVs into
profiles.csv), sweep (oversampling-ratio evaluation sweep), train
(single fit to model.json), report (render report.json as a table).

Exit codes are a stable contract: 0 success, 2 usage/input problems,
3 I/O failures, 4 computation failures. Option values resolve as
flags > config file > defaults, with READMIT_SEED as a seed fallback,
and each must have its default's type (see _defaults).
JSON artifacts embed the tool version and the fully resolved
configuration; re-running with the same inputs is byte-identical.

Importing this module loads only argument parsing, json, os, pathlib
and readmit.errors. Each command imports what it runs in its own body:
report, --help and --version load no other readmit module; unify loads
cohort and schema; synth, sweep and train also load numpy. The
defaults are read from the schema classes that own them on first use.

The program (``python -m readmit.cli`` and the ``readmit`` console
script) is run(): main, then gc.freeze() before the interpreter exits,
so that its final collections skip the heap the command left alive.
main() itself freezes nothing and returns the exit code.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ClassTooSmall,
    EmptyKeyPart,
    InfeasibleSpec,
    MalformedCsv,
    MinorityTooSmall,
    ReadmitError,
    UnmappableFamilyType,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


@functools.cache
def _defaults() -> dict:
    """Each option's default. Model and oversampling defaults are those
    of the classes that own them, so the first call loads schema."""
    from dataclasses import asdict

    from .schema import ORIGINAL, GbmParams, LogisticParams, SmoteConfig
    return {
        "seed": 0,
        "folds": 5,
        "model": "gbm",
        "k": SmoteConfig.k,
        "ratios": ORIGINAL + ",0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        "ratio": ORIGINAL,
        "include_income": False,
        "ridge": LogisticParams.ridge,
        **asdict(GbmParams()),
    }


class UsageError(Exception):
    pass


def __getattr__(name: str):
    # The benchmark's traced pass wraps readmit.cli.encode, .standardize
    # and .smote by name. They resolve here, on first access, so that
    # importing the CLI loads no numpy; drop this once the benchmark
    # reads trace.jsonl (ROADMAP item 2).
    if name in ("encode", "standardize"):
        from . import features
        return getattr(features, name)
    if name == "smote":
        from . import resample
        return resample.smote
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found or not a file: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {p} is not UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    for key in payload:
        if key not in _defaults() and key != "spec":
            raise UsageError(f"config file {p}: unknown key {key!r}")
    return payload


def _resolve(args, cfg: dict, key: str):
    """The option's value, as its default's type: the flag, then the
    config file, then READMIT_SEED (seed only), then the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        value, where = flag, "--" + key.replace("_", "-")
    elif key in cfg:
        value, where = cfg[key], f"config key {key!r}"
    elif key == "seed" and "READMIT_SEED" in os.environ:
        value, where = os.environ["READMIT_SEED"], "READMIT_SEED"
    else:
        return _defaults()[key]
    kind = type(_defaults()[key])
    try:
        typed = kind(value)
        # bool("false") is True and int(2.5) is 2: neither is accepted.
        if isinstance(value, bool) != (kind is bool) or (
                kind is int and not isinstance(value, str) and typed != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise UsageError(
            f"{where} must be {kind.__name__}, got {value!r}"
        ) from None
    return typed


def _resolve_all(args, *more: str) -> dict:
    """The model options, then the command's own options (more), each
    resolved by _resolve; a model kind that is not one is rejected here,
    from a flag as from the config file."""
    from dataclasses import fields

    from .schema import MODEL_KINDS, GbmParams
    cfg = _load_config_file(args.config)
    keys = ("seed", "model", "k", "include_income", "ridge",
            *(f.name for f in fields(GbmParams)), *more)
    resolved = {key: _resolve(args, cfg, key) for key in keys}
    if resolved["model"] not in MODEL_KINDS:
        where = "--model" if args.model is not None else "config key 'model'"
        raise UsageError(f"{where} must be {' or '.join(MODEL_KINDS)}, "
                         f"got {resolved['model']!r}")
    return resolved


def parse_ratio_token(token: str) -> float | str:
    from .schema import ORIGINAL

    token = token.strip()
    if token.lower() == ORIGINAL:
        return ORIGINAL
    try:
        value = float(token)
    except ValueError:
        raise UsageError(
            f"bad ratio {token!r}: expected 'original' or a number in (0, 1]"
        ) from None
    if not (0.0 < value <= 1.0):
        raise UsageError(f"ratio {token!r} outside (0, 1]")
    return value


def parse_ratios(tokens: str) -> list[float | str]:
    parts = [t for t in tokens.split(",") if t.strip()]
    if not parts:
        raise UsageError("empty ratio list")
    ratios = [parse_ratio_token(t) for t in parts]
    for i, ratio in enumerate(ratios):
        if ratio in ratios[:i]:
            raise UsageError(f"ratio {parts[i].strip()!r} given twice")
    return ratios


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _fit_configs(resolved: dict, **smote) -> tuple:
    """(TrainConfig, SmoteConfig) of the resolved options, with smote's
    ratio and seed (by default SmoteConfig's); an out-of-range value is
    a usage error."""
    from dataclasses import fields

    from .schema import GbmParams, LogisticParams, SmoteConfig, TrainConfig
    try:
        return TrainConfig(
            gbm=GbmParams(**{f.name: resolved[f.name]
                             for f in fields(GbmParams)}),
            logistic=LogisticParams(ridge=resolved["ridge"]),
        ), SmoteConfig(k=resolved["k"], **smote)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_profiles(path: str):
    """profiles.csv's ProfileTable; a file with no rows is a usage error."""
    from . import cohort as cohort_mod

    profiles = cohort_mod.read_profiles(path)
    if not profiles:
        raise UsageError(f"profiles file {path} has no rows")
    return profiles


def _warn_unconverged(where: str) -> None:
    from .models import IRLS_MAX_ITER
    print(f"warning: {where}logistic fit stopped unconverged after "
          f"{IRLS_MAX_ITER} IRLS steps", file=sys.stderr)


def _warn_dropped_income(encoded):
    """encoded's dataset, after a warning if income mode dropped rows."""
    if encoded.dropped_missing_income:
        print(f"warning: income mode dropped {encoded.dropped_missing_income}"
              " profiles with no income", file=sys.stderr)
    return encoded.dataset


# --- commands ------------------------------------------------------------------

def cmd_synth(args) -> int:
    import dataclasses
    import hashlib

    from . import synthgen

    cfg = _load_config_file(args.config)
    if args.spec is not None:
        spec_path, where = args.spec, "--spec"
    else:
        spec_path, where = cfg.get("spec"), "config key 'spec'"
    if spec_path is None:
        spec_path = synthgen.default_spec_path()
    elif not isinstance(spec_path, str):
        raise UsageError(f"{where} must be str, got {spec_path!r}")
    elif not spec_path:
        raise UsageError(f"{where} must name a spec file, got ''")
    elif not Path(spec_path).is_file():
        raise UsageError(f"spec file not found or not a file: {spec_path}")
    try:
        spec = synthgen.load_spec(spec_path)
    except (json.JSONDecodeError, UnicodeDecodeError, InfeasibleSpec,
            TypeError) as exc:
        raise UsageError(f"bad spec {spec_path}: {exc}") from None

    seed = spec.seed
    if args.seed is not None or "seed" in cfg or "READMIT_SEED" in os.environ:
        seed = _resolve(args, cfg, "seed")
    spec = dataclasses.replace(spec, seed=seed)

    try:
        cohort = synthgen.generate(spec)
    except InfeasibleSpec as exc:
        raise UsageError(f"bad spec {spec_path}: {exc}") from None
    out_dir = Path(args.out)
    synthgen.emit_raw_files(cohort, out_dir)  # creates out_dir

    spec_dict = spec.to_json_dict()
    spec_blob = json.dumps(spec_dict, sort_keys=True).encode("utf-8")
    manifest = {
        "version": __version__,
        "seed": seed,
        "spec": spec_dict,
        "spec_sha256": hashlib.sha256(spec_blob).hexdigest(),
        "n_profiles": len(cohort),
        "n_positive": sum(cohort.columns["readmit"]),
        "files": ["demographics.csv", "exits.csv", "incidents.csv"],
    }
    _dump_json(manifest, out_dir / "cohort_manifest.json")
    print(f"cohort: {len(cohort)} profiles "
          f"({manifest['n_positive']} readmitted) -> {out_dir}")
    return EXIT_OK


def cmd_unify(args) -> int:
    from . import cohort as cohort_mod

    demo = cohort_mod.read_demographics(args.demographics)
    exits = cohort_mod.read_exits(args.exits)
    incidents = cohort_mod.read_incidents(args.incidents)
    if not exits:
        print("warning: no exit records; every episode will be open",
              file=sys.stderr)

    try:
        result = cohort_mod.unify(demo, exits, incidents)
    except EmptyKeyPart:
        raise cohort_mod.locate_blank_key([
            (args.demographics, demo), (args.exits, exits),
            (args.incidents, incidents),
        ]) from None
    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    cohort_mod.write_profiles(result.profiles, out_path)

    warnings_path = out_path.with_name(out_path.name + ".warnings.log")
    with open(warnings_path, "w", encoding="utf-8") as fh:
        for warning in result.warnings:
            fh.write(str(warning) + "\n")

    print(f"profiles: {len(result.profiles)}")
    print(f"removed: {result.removed_not_admitted}")
    print(f"warnings: {len(result.warnings)} -> {warnings_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import evaluate as eval_mod
    from .schema import FeatureSchema

    resolved = _resolve_all(args, "folds", "ratios")
    ratios = parse_ratios(resolved["ratios"])
    if resolved["folds"] < 2:
        raise UsageError(f"folds must be >= 2, got {resolved['folds']}")
    train_config, _ = _fit_configs(resolved)  # also rejects a bad k here
    profiles = _read_profiles(args.profiles)

    results, dropped = eval_mod.sweep(
        profiles,
        ratios,
        model_kind=resolved["model"],
        k=resolved["k"],
        train_config=train_config,
        n_folds=resolved["folds"],
        seed=resolved["seed"],
        include_income=resolved["include_income"],
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved["ratios"] = [eval_mod.ratio_label(r) for r in ratios]
    payload = {
        "version": __version__,
        "config": resolved,
        "dropped_missing_income": dropped,
        "rows": [result.row() for result in results],
    }
    _dump_json(payload, out_dir / "report.json")
    FeatureSchema(include_income=resolved["include_income"]).write(
        out_dir / "schema.json"
    )
    for result in results:
        eval_mod.write_roc_csv(result.curve,
                               out_dir / f"roc_{result.ratio}.csv")
        for trace in result.traces:
            if not trace.converged:
                _warn_unconverged(f"ratio {result.ratio}, fold {trace.fold}: ")
    print(f"report: {out_dir / 'report.json'} ({len(results)} rows)")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import evaluate as eval_mod
    from . import models as models_mod
    from .schema import FeatureSchema
    from .seeding import derive_seed

    resolved = _resolve_all(args, "ratio")
    ratio = parse_ratio_token(resolved["ratio"])
    train_config, smote_config = _fit_configs(
        resolved, ratio=ratio, seed=derive_seed(resolved["seed"], "smote"))
    profiles = _read_profiles(args.profiles)

    schema = FeatureSchema(include_income=resolved["include_income"])
    # evaluate's name for encode: a call site the traced benchmark wraps.
    # The encoded rows are an argument only, freed once the fit returns.
    pipeline = eval_mod.fit_model(
        _warn_dropped_income(eval_mod.encode(profiles, schema)),
        resolved["model"], smote_config, train_config)
    if not pipeline.converged:
        _warn_unconverged("")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved["ratio"] = eval_mod.ratio_label(ratio)
    models_mod.save_model(
        pipeline.model,
        out_dir / "model.json",
        extra={"version": __version__, "config": resolved,
               "columns": schema.columns},
    )
    schema.write(out_dir / "schema.json")
    print(f"model: {out_dir / 'model.json'}")
    return EXIT_OK


_REPORT_METRICS = (
    ("Accuracy", "accuracy", "{:.3f}"),
    ("True Positives", "tp", "{:d}"),
    ("False Negatives", "fn", "{:d}"),
    ("False Positives", "fp", "{:d}"),
    ("True Negatives", "tn", "{:d}"),
    ("AUC", "auc", "{:.3f}"),
    ("Sensitivity", "sensitivity", "{:.3f}"),
)


def cmd_report(args) -> int:
    path = Path(args.report)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = payload["rows"]
        labels = [row["ratio"] for row in rows]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
            TypeError) as exc:
        raise UsageError(f"bad report file {path}: {exc}") from None
    for label in labels:
        if not isinstance(label, str):
            raise UsageError(
                f"bad report file {path}: ratio must be str, got {label!r}")
    if not labels:
        raise UsageError(f"bad report file {path}: rows is empty")

    header = ["Ratio"] + labels
    table = [header]
    for title, key, fmt in _REPORT_METRICS:
        try:
            table.append([title] + [fmt.format(row[key]) for row in rows])
        except (KeyError, ValueError, TypeError) as exc:
            raise UsageError(f"bad report file {path}: {exc}") from None

    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for i, row in enumerate(table):
        line = "  ".join(
            cell.ljust(widths[c]) if c == 0 else cell.rjust(widths[c])
            for c, cell in enumerate(row)
        )
        print(line.rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    return EXIT_OK


# --- wiring --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readmit",
        description="Shelter readmission pipeline: synthesize, link, "
                    "train, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed")
        p.add_argument("--config", help="JSON file supplying option defaults")

    p_synth = sub.add_parser("synth", help="generate a synthetic raw CSV trio")
    add_common(p_synth)
    p_synth.add_argument("--spec",
                         help="cohort spec JSON (defaults to the bundled one)")
    p_synth.add_argument("-o", "--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_unify = sub.add_parser("unify",
                             help="link raw CSVs into profiles.csv")
    p_unify.add_argument("demographics")
    p_unify.add_argument("exits")
    p_unify.add_argument("incidents")
    p_unify.add_argument("-o", "--out", required=True,
                         help="output profiles.csv path")
    p_unify.set_defaults(func=cmd_unify)

    def add_model_opts(p):
        p.add_argument("--model", help="logistic or gbm")
        p.add_argument("--k", help="oversampling neighbor count")
        p.add_argument("--include-income", action="store_true", default=None)
        p.add_argument("--n-trees")
        p.add_argument("--learning-rate")
        p.add_argument("--max-depth")
        p.add_argument("--min-samples-leaf")
        p.add_argument("--ridge")

    p_sweep = sub.add_parser("sweep",
                             help="evaluate across oversampling ratios")
    add_common(p_sweep)
    add_model_opts(p_sweep)
    p_sweep.add_argument("--profiles", required=True)
    p_sweep.add_argument("--ratios", help="comma list, e.g. original,0.3,1.0")
    p_sweep.add_argument("--folds")
    p_sweep.add_argument("-o", "--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train", help="fit one model to model.json")
    add_common(p_train)
    add_model_opts(p_train)
    p_train.add_argument("--profiles", required=True)
    p_train.add_argument("--ratio",
                         help="single oversampling ratio or 'original'")
    p_train.add_argument("-o", "--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_report = sub.add_parser("report",
                              help="render report.json as an aligned table")
    p_report.add_argument("--report", required=True)
    p_report.set_defaults(func=cmd_report)

    return parser


_INPUT_ERRORS = (MalformedCsv, EmptyKeyPart, UnmappableFamilyType)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MinorityTooSmall as exc:  # a training fold cannot support --k
        print(f"error: option --k: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClassTooSmall as exc:  # a class has fewer rows than --folds
        print(f"error: option --folds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ReadmitError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run() -> None:
    """The program: main, then exit with its code. The heap main leaves
    alive is frozen first, so the interpreter's final collections do not
    walk it; atexit handlers and the flushes of stdout and stderr still
    run, and every file a command writes is closed before it returns."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
