"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/perf/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a run JSON written by
``run.py --out`` or a directory of them.  For every workload and metric
it prints each side's median, quartiles and run count, the change of the
median, and a verdict under the bounds in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B beats A in at least 9 of 10 run pairs and the medians
  differ by more than A's interquartile range;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and B is not better (or worse) in
  every run;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; they are listed for reading only.
``error_rate`` (failed / attempted) is compared with an absolute bound
of 0.001.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]
ERROR_RATE_BOUND = 0.001

Values = Dict[Tuple[str, str], List[float]]


def load_set(path: Path) -> Values:
    """``(workload, metric) -> values`` over every run in ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: Values = defaultdict(list)
    for f in files:
        run = json.loads(f.read_text())
        for wl, result in run["workloads"].items():
            for name, m in result["metrics"].items():
                values[(wl, name)].append(m["value"])
            if not result["trace"]:
                values[(wl, "error_rate")].append(result["error_rate"])
    if not values:
        raise SystemExit(f"error: no runs in {path}")
    return values


def declared() -> Dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    out["error_rate"] = {"name": "error_rate", "better": "lower", "bound": None}
    return out


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float], absolute: Optional[float] = None) -> str:
    """One of worse / better / unresolved / unchanged (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (y - x) for x in a for y in b]   # > 0: B better
    qa1, ma, qa3 = quartiles(a)
    gap = sign * (quartiles(b)[1] - ma)
    if absolute is not None:
        return "worse" if -gap > absolute else "unchanged"
    if max(spread(a), spread(b)) > bound:
        if all(g > 0 for g in gains):
            return "better"
        if all(g < 0 for g in gains):
            return "worse"
        return "unresolved"
    if -gap > bound * abs(ma):
        return "worse"
    wins = sum(g > 0 for g in gains)
    if wins >= 0.9 * len(gains) and gap > qa3 - qa1:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (load_set(Path(p)) for p in argv)
    spec = declared()
    worse = 0
    header = (f"{'workload':<13} {'metric':<34} {'A median [q1, q3] n':>32} "
              f"{'B median [q1, q3] n':>32} {'change':>8}  verdict")
    print(header)
    for key in sorted(set(a) & set(b)):
        wl, name = key
        meta = spec.get(name)
        if meta is None:
            continue
        cols = []
        for vals in (a[key], b[key]):
            q1, med, q3 = quartiles(vals)
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(vals)}")
        ma, mb = quartiles(a[key])[1], quartiles(b[key])[1]
        change = f"{(mb - ma) / abs(ma) * 100:+.1f}%" if ma else "-"
        if name == "error_rate":
            v = verdict(a[key], b[key], "lower", None, ERROR_RATE_BOUND)
        elif meta["bound"] is None:
            v = "(per layer)"
        else:
            v = verdict(a[key], b[key], meta["better"], meta["bound"])
        worse += v == "worse"
        print(f"{wl:<13} {name:<34} {cols[0]:>32} {cols[1]:>32} {change:>8}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
