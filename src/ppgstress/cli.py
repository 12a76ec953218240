"""Command-line surface: synth / features / eval / sweep / suds / catalog.

Exit codes: 0 success, 1 validation error, 2 data error or argparse usage
error (an unknown or missing option, a bad `--model` choice).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import evaluate, hrv, io, models, windows
from .errors import DataError, ValidationError


def _add_manifest(p: argparse.ArgumentParser):
    p.add_argument("--manifest", type=Path, required=True,
                   help="saved cohort's manifest.json (`synth` writes one)")


def _add_window_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=float, default=windows.WindowSpec.size_s,
                   help="window size, seconds")
    p.add_argument("--step", type=float, default=windows.WindowSpec.step_s,
                   help="window hop, seconds")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="model seed")
    p.add_argument("--k", type=int, default=evaluate.DEFAULT_K,
                   help="features kept by ANOVA-F")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppgstress",
        description="PPG -> HRV -> relaxed/stressed classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic cohort to disk")
    p.add_argument("--subjects", type=int, default=io.SynthCohortSpec.n_subjects)
    p.add_argument("--seed", type=int, default=io.SynthCohortSpec.seed)
    p.add_argument("--fs", type=float, default=io.SynthCohortSpec.fs)
    p.add_argument("--span", type=float, default=io.SynthCohortSpec.span_s,
                   help="seconds per condition span")
    p.add_argument("--noise", type=float, default=io.SynthCohortSpec.noise_sigma)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("features", help="extract the feature matrix to CSV")
    _add_manifest(p)
    _add_window_flags(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("eval", help="leave-one-subject-out evaluation")
    _add_manifest(p)
    _add_window_flags(p)
    _add_model_flags(p)
    p.add_argument("--model", action="append", choices=models.MODEL_KINDS,
                   help="classifier (repeatable); default lda")
    p.add_argument("--out", type=Path, help="directory for report JSON files")

    p = sub.add_parser("sweep", help="window-size sweep to CSV")
    _add_manifest(p)
    sizes = ",".join(f"{s:g}" for s in windows.DEFAULT_SWEEP_SIZES)
    p.add_argument("--sizes", default=sizes,
                   help="comma-separated window sizes in seconds")
    p.add_argument("--step", type=float, default=windows.WindowSpec.step_s,
                   help="window hop, seconds")
    _add_model_flags(p)
    p.add_argument("--model", choices=models.MODEL_KINDS, default="lda")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("suds", help="Mann-Whitney U test on SUDs ratings")
    _add_manifest(p)
    p.add_argument("--out", type=Path, help="JSON output path")

    sub.add_parser("catalog", help="print the machine-readable feature catalog")
    return parser


def _cmd_synth(args) -> int:
    spec = io.SynthCohortSpec(n_subjects=args.subjects, fs=args.fs,
                              span_s=args.span, noise_sigma=args.noise,
                              seed=args.seed)
    manifest = io.save_dataset(io.synth_cohort(spec), args.out)
    print(manifest)
    return 0


def _cmd_features(args) -> int:
    spec = windows.WindowSpec(args.window, args.step)
    matrix = windows.build_matrix(io.load_dataset(args.manifest), spec)
    matrix.to_csv(args.out)
    print(f"{args.out}: {matrix.n_rows} rows x {len(matrix.columns)} features")
    return 0


def _cmd_eval(args) -> int:
    spec = windows.WindowSpec(args.window, args.step)
    kinds = args.model or ["lda"]
    evaluate.check_run(args.k, kinds, args.seed)
    reports = evaluate.loso_reports(io.load_dataset(args.manifest), [spec], kinds,
                                    args.k, args.seed)
    for kind, report in zip(kinds, reports):
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
    try:
        sizes = [float(s) for s in str(args.sizes).split(",") if s]
    except ValueError:
        raise ValidationError(
            f"--sizes must be comma-separated numbers, got {args.sizes!r}") from None
    if not sizes:
        raise ValidationError(f"--sizes names no window size: {args.sizes!r}")
    for s in sizes:
        windows.WindowSpec(s, args.step)
    evaluate.check_run(args.k, [args.model], args.seed)
    ds = io.load_dataset(args.manifest)
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
    report = evaluate.suds_report(io.load_dataset(args.manifest))
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
