"""Command-line surface: synth / features / eval / sweep / suds / catalog.

Exit codes: 0 success, 1 validation error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import evaluate, hrv, io, models, windows
from .errors import DataError, ValidationError


def _add_data_source(p: argparse.ArgumentParser):
    p.add_argument("--manifest", type=Path, help="dataset manifest.json path")
    p.add_argument("--synth", action="store_true",
                   help="use a synthetic cohort instead of a manifest")
    p.add_argument("--subjects", type=int, default=16,
                   help="synthetic cohort size (with --synth)")
    p.add_argument("--seed", type=int, default=0)


def _add_pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=float, default=80.0, help="window size, seconds")
    p.add_argument("--step", type=float, default=5.0, help="window hop, seconds")
    p.add_argument("--k", type=int, default=35, help="features kept by ANOVA-F")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppgstress",
        description="PPG -> HRV -> relaxed/stressed classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic cohort to disk")
    p.add_argument("--subjects", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=100.0)
    p.add_argument("--span", type=float, default=420.0,
                   help="seconds per condition span")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("features", help="extract the feature matrix to CSV")
    _add_data_source(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("eval", help="leave-one-subject-out evaluation")
    _add_data_source(p)
    _add_pipeline_flags(p)
    p.add_argument("--model", action="append", choices=models.MODEL_KINDS,
                   help="classifier (repeatable); default lda")
    p.add_argument("--out", type=Path, help="directory for report JSON files")

    p = sub.add_parser("sweep", help="window-size sweep to CSV")
    _add_data_source(p)
    p.add_argument("--sizes", default="60,70,80,90,100,110,120",
                   help="comma-separated window sizes in seconds")
    p.add_argument("--step", type=float, default=5.0)
    p.add_argument("--k", type=int, default=35)
    p.add_argument("--model", choices=models.MODEL_KINDS, default="lda")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("suds", help="Mann-Whitney U test on SUDs ratings")
    _add_data_source(p)
    p.add_argument("--mode", choices=("auto", "exact", "normal"), default="auto")
    p.add_argument("--out", type=Path, help="JSON output path")

    sub.add_parser("catalog", help="print the machine-readable feature catalog")
    return parser


def _load_data(args) -> io.Dataset:
    if bool(args.manifest) == bool(args.synth):
        raise ValidationError("specify exactly one of --manifest and --synth")
    if args.manifest:
        return io.load_dataset(args.manifest)
    if args.subjects < 1:
        raise ValidationError("--subjects must be >= 1")
    return io.synth_cohort(io.SynthCohortSpec(n_subjects=args.subjects,
                                              seed=args.seed))


def _cmd_synth(args) -> int:
    if args.subjects < 1:
        raise ValidationError("--subjects must be >= 1")
    spec = io.SynthCohortSpec(n_subjects=args.subjects, fs=args.fs,
                              span_s=args.span, noise_sigma=args.noise,
                              seed=args.seed)
    manifest = io.save_dataset(io.synth_cohort(spec), args.out)
    print(manifest)
    return 0


def _cmd_features(args) -> int:
    ds = _load_data(args)
    spec = windows.WindowSpec(args.window, args.step)
    matrix = windows.build_matrix(ds, spec)
    matrix.to_csv(args.out)
    print(f"{args.out}: {matrix.n_rows} rows x {len(matrix.columns)} features")
    return 0


def _cmd_eval(args) -> int:
    ds = _load_data(args)
    spec = windows.WindowSpec(args.window, args.step)
    for kind in args.model or ["lda"]:
        report = evaluate.loso(ds, spec, args.k, kind, args.seed)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"cv_report_{kind}.json").write_text(report.to_json() + "\n")
        print(f"model={kind}")
        for fold in report.folds:
            print(f"  {fold.subject_id}: accuracy={fold.accuracy:.4f} "
                  f"n={fold.n_windows}")
        print(f"  mean-over-subjects accuracy: {report.mean_accuracy:.4f}")
        print(f"  pooled-over-windows accuracy: {report.pooled_accuracy:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    sizes = [float(s) for s in str(args.sizes).split(",") if s]
    for s in sizes:
        if s < 60.0:
            raise ValidationError(
                f"window size {s:g} s is below the 60 s spectral floor")
    ds = _load_data(args)
    rows = evaluate.sweep_windows(ds, sizes, args.step, args.k, args.model,
                                  args.seed)
    with open(args.out, "w") as f:
        f.write("window_s,mean_accuracy,pooled_accuracy\n")
        for r in rows:
            f.write(f"{r['window_s']:g},{r['mean_accuracy']:.6f},"
                    f"{r['pooled_accuracy']:.6f}\n")
    print(f"{args.out}: {len(rows)} rows")
    return 0


def _cmd_suds(args) -> int:
    ds = _load_data(args)
    report = evaluate.suds_report(ds, args.mode)
    text = report.to_json()
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def _cmd_catalog(args) -> int:
    table = [{"name": n, "domain": d, "unit": u, "formula": f}
             for n, d, u, f in hrv.CATALOG]
    print(json.dumps({"catalog_version": hrv.CATALOG_VERSION,
                      "features": table}, indent=2))
    return 0


_COMMANDS = {"synth": _cmd_synth, "features": _cmd_features, "eval": _cmd_eval,
             "sweep": _cmd_sweep, "suds": _cmd_suds, "catalog": _cmd_catalog}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
