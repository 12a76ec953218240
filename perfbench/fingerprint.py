"""Output fingerprints: what a run produced, compact enough to keep and compare.

A fingerprint is a JSON document with an `inputs` part (the feature matrix
of the eval workloads, or the dataset the sweep job loaded) and one entry
per operation. Two fingerprints agree when:

- strings, integers and booleans are equal: matrix shape and row keys
  `(subject, label, start_s)` (start_s to the microsecond, hashed), every
  fold's predicted labels, sample and fold counts;
- per-fold sums of probabilities and of their squares differ by at most
  PROB_ABS, so no single probability moves by more than that;
- every other float agrees to REL relative: the per-subject column sums and
  the column minima and maxima of the features (one feature value moved
  by more than about rows-per-subject x REL relative is caught), sample
  sums, span bounds, accuracies and the U statistic, z and p.

Run `python3 perfbench/fingerprint.py A.json B.json` to compare the
fingerprints two runs wrote; it prints each mismatch and exits 1 if any.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

REL = 1e-9
PROB_ABS = 1e-9
ABS_KEYS = ("p_sum", "p_sq_sum")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_digest(m) -> dict:
    subjects = np.array(m.subjects)
    keys = "\n".join(f"{s},{int(l)},{t:.6f}"
                     for s, l, t in zip(m.subjects, m.labels, m.starts))
    return {
        "shape": list(m.X.shape),
        "columns": list(m.columns),
        "keys_sha256": _sha(keys),
        "subject_sums": {sid: m.X[subjects == sid].sum(axis=0).tolist()
                         for sid in dict.fromkeys(m.subjects)},
        "col_min": m.X.min(axis=0).tolist(),
        "col_max": m.X.max(axis=0).tolist(),
    }


def dataset_digest(ds) -> dict:
    return {t.subject_id: {
        "fs": t.fs,
        "n": len(t.samples),
        "sum": float(np.sum(t.samples)),
        "sq_sum": float(np.sum(t.samples ** 2)),
        "spans": [[s.start_s, s.end_s, s.condition.name] for s in t.annotations],
        "suds": [[r.time_s, r.value] for r in t.suds],
    } for t in ds}


def fold_digest(p: np.ndarray) -> dict:
    return {"n": len(p),
            "labels": "".join("1" if v >= 0.5 else "0" for v in p),
            "p_sum": float(np.sum(p)),
            "p_sq_sum": float(np.sum(p * p))}


def compare(got, ref, path: str = "", key: str = "") -> list[str]:
    """Paths (`a/b/3`) at which `got` differs from `ref` beyond tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        out = [f"{path}/{k}" for k in sorted(set(ref) ^ set(got))]
        for k in ref.keys() & got.keys():
            out += compare(got[k], ref[k], f"{path}/{k}", k)
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [path]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare(g, r, f"{path}/{i}", key)]
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(ref, (int, float)) \
                and not isinstance(got, bool):
            tol = PROB_ABS if key in ABS_KEYS else REL * max(abs(got), abs(ref))
            if abs(got - ref) <= tol or (math.isnan(got) and math.isnan(ref)):
                return []
        return [path]
    return [] if got == ref and type(got) is type(ref) else [path]


def load(path) -> dict:
    """A fingerprint, alone or inside a run's result file."""
    with open(path) as f:
        doc = json.load(f)
    return doc.get("fingerprint", doc)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: fingerprint.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (load(p) for p in argv)
    diffs = compare({k: a.get(k) for k in ("inputs", "ops")},
                    {k: b.get(k) for k in ("inputs", "ops")})
    for d in diffs:
        print("mismatch:", d)
    print(f"{len(diffs)} mismatches")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
