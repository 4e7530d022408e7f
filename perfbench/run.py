"""Run the repository benchmark on one workload (or all of them).

Run from the repository root::

    python3 perfbench/run.py --workload paper-adaptive --seed 1995 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and also
writes Chrome trace files under ``perfbench/out/<workload>/``.  Lines
before it are a human-readable table.  ``--workload all`` measures each
workload in its own process (so ``peak_rss_mb`` is that workload's own)
and prints one table of every end-to-end metric.

Exit codes: 0 on a result, 2 when the repository sources are missing,
3 when passes of a workload disagree on a deterministic number.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1995
DEFAULT_SECONDS = 18
WORKLOAD_NAMES = ("order-heavy", "paper-adaptive", "churn-recover", "service-stream")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="how long the untraced passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics and write traces")
    return ap.parse_args(argv)


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _run_one(args: argparse.Namespace) -> int:
    from harness import END_TO_END, PER_LAYER, DeterminismError, measure, write_traces
    from workloads import WORKLOADS

    try:
        m = measure(WORKLOADS[args.workload], args.seed, args.seconds)
    except DeterminismError as exc:
        print(f"perfbench: determinism check failed: {exc}", file=sys.stderr)
        return 3
    values, units = (m.per_layer, PER_LAYER) if args.trace else (m.end_to_end, END_TO_END)
    rows = [("metric", "value", "unit")]
    rows += [(name, f"{values[name]:.6g}", unit) for name, unit in units.items()]
    rows.append(("error_rate", f"{m.error_rate:.6g}", "ratio"))
    print(f"{args.workload} (seed {args.seed}, {m.attempted} passes)")
    print(_table(rows))
    if args.trace:
        out = HERE / "out" / args.workload
        write_traces(m, out, {"workload": args.workload, "seed": args.seed})
        print(f"traces written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = next(iter(results.values()))["metrics"]
    rows = [("metric", "unit") + WORKLOAD_NAMES]
    for metric, info in metrics.items():
        rows.append((metric, info["unit"]) + tuple(
            f"{results[w]['metrics'][metric]['value']:.6g}" for w in WORKLOAD_NAMES
        ))
    rows.append(("error_rate", "ratio") + tuple(
        f"{results[w]['failed'] / results[w]['attempted']:.6g}" for w in WORKLOAD_NAMES
    ))
    print(_table(rows))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(src))
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
