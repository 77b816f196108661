"""vcs-irreps benchmark: time the CLI and the K-matrix induction from outside.

    python3 bench/run.py --workload u3-exact --seed 1 --seconds 40 --trace 0

Each operation runs in a fresh interpreter (``child.py``), one at a time, so
it pays the cold ``lru_cache``s a CLI user pays on every call.  The child
times the import of ``vcs_irreps.cli`` (set-up) and the operation separately,
then checks the output; an operation whose gate fails or that raises counts
as failed and never in a timing.  Passes over the workload's operations run
until the next pass would end after ``--seconds``; the first pass always
runs.  The seed orders the operations within each pass; the inputs are fixed.
BLAS threads in the children are pinned to ``BLAS_THREADS``.  Times are
scaled to a reference machine speed (``REFERENCE_CALIBRATION_S``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs every
operation both untraced and traced and prints the per-layer metrics (see
``spans.py``).  A readable report goes to standard output, the last line is
one JSON object, and ``bench/results/`` gets a JSON file with the samples,
every metric, the provenance and (traced) the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1  # the operation and its calibration then use the same single vCPU
# Operation and set-up times are reported at the speed where the child's
# calibration (see child.calibrate) takes this long: each is multiplied by it
# over the calibration timed around it.  On a shared 2-vCPU VM the speed
# drifts by up to 1.8x between minutes, and unscaled spreads over ten seeds
# reached 0.31 of the median.
REFERENCE_CALIBRATION_S = 0.25
RUN_LIMIT_S = 170.0  # every child is stopped before a run reaches this

# workload -> units; the seed shuffles the units, a unit's operations keep
# their order (a replay follows its gen).  Operation names are ops.py's, and
# the part before the first "-" names the end-to-end metric they feed.
WORKLOADS = {
    "u3-exact": [["check-u3"], ["gen-u3", "replay-u3"]],
    "so3-float": [["check-su3so3"], ["branch-su3so3"], ["gen-su3so3", "replay-su3so3"]],
    "induce": [["induce-u3"], ["induce-su11"], ["ingest-u3"], ["check-su11"]],
}
OP_METRICS = ("check_s", "gen_s", "replay_s", "branch_s", "induce_s", "ingest_s")

# The last JSON line carries these; the readable report has every metric.
END_TO_END = {"setup_s": "s", "check_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the JSON line.  Left out are the layer times of a layer
# that is idle on some workload (they read exactly 0 there); the report and
# the results file keep them.
PER_LAYER = (
    "radical.from_value_calls", "radical.sum_mul_calls", "radical.sum_add_calls",
    "radical.squarefree_calls", "radical.squarefree_hit_ratio",
    "angmom.cg_calls", "angmom.cg_s", "angmom.cg_hit_ratio",
    "opmatrix.matmul_calls", "opmatrix.to_dense_s",
    "kmatrix.sectors", "kmatrix.zero_norm_states",
    "repcheck.hermiticity_s", "repcheck.schur_s",
    "cli.self_s", "cli.doc_bytes", "trace.overhead_s",
)
# counters spans.Tracer keeps under these names
TRACER_COUNTS = ("radical.from_value_calls", "radical.sum_mul_calls", "radical.sum_add_calls",
                 "kmatrix.sectors", "kmatrix.zero_norm_states")
# hit ratio -> (hits, calls) from the caches' cache_info()
HIT_RATIOS = {
    "radical.squarefree_hit_ratio": ("radical.squarefree_hits", "radical.squarefree_calls"),
    "angmom.cg_hit_ratio": ("angmom.cg_kernel_hits", "angmom.cg_kernel_calls"),
}
# per-layer time -> span name; a span's self time is its layer's time
SPAN_TIMES = {f"{name}_s": name for _, _, name, _ in spans.SPANNED}
SPAN_TIMES["cli.self_s"] = SPAN_TIMES.pop("cli.main_s")


class BenchError(Exception):
    pass


def _child(spec: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one child to completion; return (its result or None, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        pass
    return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def _provenance(seed: int, versions: dict) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        **versions,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "seed": seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def _median(values):
    return statistics.median(values) if values else None


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: str, limit: float):
    """Run passes until the next would end after ``seconds``; return samples."""
    rng = random.Random(seed)
    samples = []
    end = time.monotonic() + seconds
    last_pass = 0.0
    for index in itertools.count():
        if index and time.monotonic() + last_pass > end:
            break
        started = time.monotonic()
        units = list(WORKLOADS[workload])
        rng.shuffle(units)
        for position, unit in enumerate(units):
            modes = [False]
            if trace:  # both modes, traced first on every other unit
                modes = [True, False] if (index + position) % 2 else [False, True]
            for traced in modes:
                for name in unit:
                    if limit - time.monotonic() < 1.0:
                        return samples
                    spec = {"src": str(SRC), "work": work, "op": name, "trace": traced,
                            "op_id": f"{workload}/{seed}/{index}/{name}/{int(traced)}"}
                    result, error = _child(spec, limit)
                    if result is None:
                        result = {"status": "failed", "error": error, "op_s": None}
                    samples.append({"op": name, "pass": index, "traced": traced, **result})
        last_pass = time.monotonic() - started
    return samples


def _scaled(sample: dict, key: str, scaled: bool) -> float:
    return sample[key] * REFERENCE_CALIBRATION_S / sample["calibration_s"] if scaled else sample[key]


def _op_table(samples: list[dict], traced: bool, scaled: bool = True) -> dict:
    table = {}
    for s in samples:
        if s["traced"] != traced:
            continue
        row = table.setdefault(s["op"], {"attempted": 0, "times": []})
        row["attempted"] += 1
        if s["status"] == "ok":
            row["times"].append(_scaled(s, "op_s", scaled))
    return table


def end_to_end(workload: str, samples: list[dict], scaled: bool = True) -> dict:
    table = _op_table(samples, traced=False, scaled=scaled)
    medians = {op: _median(row["times"]) for op, row in table.items()}
    setup = [_scaled(s, "import_s", scaled) for s in samples if "calibration_s" in s]
    metrics = {"setup_s": _median(setup)}
    for metric in OP_METRICS:
        ops = [op for unit in WORKLOADS[workload] for op in unit if op.startswith(metric[:-2] + "-")]
        values = [medians.get(op) for op in ops]
        metrics[metric] = sum(values) if ops and None not in values else None
    metrics["pass_s"] = sum(m for m in medians.values() if m is not None)
    attempted = sum(row["attempted"] for row in table.values())
    failed = attempted - sum(len(row["times"]) for row in table.values())
    metrics["fail_frac"] = failed / attempted if attempted else None
    rss = [s["rss_kb"] for s in samples if "rss_kb" in s and not s["traced"]]
    metrics["peak_rss_mb"] = max(rss) / 1024 if rss else None
    return metrics


def per_layer(samples: list[dict]) -> dict:
    """Per-pass layer figures: for each operation the median over its traced
    runs (failed ones included, their layer work is real), summed over operations."""
    per_op: dict[str, list[dict]] = {}
    for s in samples:
        if s["traced"] and "trace" in s:
            per_op.setdefault(s["op"], []).append(_layer_figures(s))
    keys = _layer_figures(None)
    totals = {k: sum(statistics.median(r[k] for r in runs) for runs in per_op.values()) for k in keys}
    for ratio, (hits, calls) in HIT_RATIOS.items():
        totals[ratio] = totals.pop(hits) / totals[calls] if totals[calls] else 0.0
    totals.pop("angmom.cg_kernel_calls")
    untraced = _op_table(samples, traced=False)
    traced = _op_table(samples, traced=True)
    totals["trace.overhead_s"] = sum(
        _median(traced[op]["times"]) - _median(row["times"])
        for op, row in untraced.items()
        if row["times"] and traced.get(op, {}).get("times")
    )
    return totals


def _layer_figures(sample: dict | None) -> dict:
    """One traced child's figures; with ``None``, the same keys set to 0."""
    t = sample["trace"] if sample else {"self_s": {}, "counts": {}, "calls": {}, "caches": {}}
    empty = {"hits": 0, "misses": 0}
    sqf = t["caches"].get("radical.squarefree_decompose", empty)
    cg = t["caches"].get("angmom._cg_twice", empty)
    return {
        **{name: t["self_s"].get(span, 0.0) for name, span in SPAN_TIMES.items()},
        **{name: t["counts"].get(name, 0) for name in TRACER_COUNTS},
        "angmom.cg_calls": t["calls"].get("angmom.cg", 0),
        "opmatrix.matmul_calls": t["calls"].get("opmatrix.matmul", 0),
        "cli.doc_bytes": sample.get("doc_bytes", 0) if sample else 0,
        "radical.squarefree_calls": sqf["hits"] + sqf["misses"],
        "radical.squarefree_hits": sqf["hits"],
        "angmom.cg_kernel_calls": cg["hits"] + cg["misses"],
        "angmom.cg_kernel_hits": cg["hits"],
    }


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "fail_frac":
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def _report(args, provenance, samples, metrics, raw, path) -> None:
    print(f"vcs-irreps benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in provenance.items()))
    print(f"  {'operation':15s} {'traced':6s} {'ok/run':>7s} {'median_s':>10s} {'min_s':>9s} {'max_s':>9s}")
    for traced in (False, True):
        for op, row in _op_table(samples, traced).items():
            times = row["times"]
            cells = [f"{f(times):10.4f}" if times else f"{'-':>10s}" for f in (_median, min, max)]
            print(f"  {op:15s} {str(traced):6s} {len(times):3d}/{row['attempted']:<3d} "
                  + " ".join(cells))
    errors: dict[str, int] = {}
    for s in samples:
        if s["status"] != "ok":
            key = f"{s['op']}: {s['error']}"
            errors[key] = errors.get(key, 0) + 1
    for key, count in errors.items():
        print(f"  FAILED x{count}  {key}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        unscaled = f"  (unscaled {raw[name]:.6g} s)" if raw.get(name) is not None else ""
        print(f"  {name:32s} {shown:>14s} {_unit(name)}{unscaled}")
    print(f"results: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vcs_irreps" / "__init__.py").is_file():
        print(f"error: no vcs_irreps package under {SRC}", file=sys.stderr)
        return 2
    limit = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return _run(args, work, limit)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str, limit: float) -> int:
    def helper(op):
        result, error = _child({"src": str(SRC), "work": work, "op": op, "trace": False}, limit)
        if result is None:
            raise BenchError(f"set-up child {op!r} failed: {error}")
        return result

    versions = helper(None)["versions"]  # also compiles the bytecode before set-up is timed
    if any(op == "ingest-u3" for unit in WORKLOADS[args.workload] for op in unit):
        helper("prep")
    samples = _measure(args.workload, args.seed, args.seconds, bool(args.trace), work, limit)
    provenance = _provenance(args.seed, versions)

    attempted = len(samples)
    failed = sum(s["status"] != "ok" for s in samples)
    correct = all(s["status"] != "wrong" for s in samples)
    metrics = end_to_end(args.workload, samples)
    raw = {k: v for k, v in end_to_end(args.workload, samples, scaled=False).items() if k.endswith("_s")}
    shown = {k: metrics[k] for k in END_TO_END}
    if args.trace:
        layers = per_layer(samples)
        metrics.update(layers)
        shown = {k: layers[k] for k in PER_LAYER}

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = [span for s in samples for span in s.get("trace", {}).get("spans", [])]
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "unscaled_times": raw,
        "samples": [{k: v for k, v in s.items() if k != "trace"} for s in samples],
        "spans": spans,
    }
    path.write_text(json.dumps(record, indent=1))
    _report(args, provenance, samples, metrics, raw, path)

    missing = [k for k, v in shown.items() if v is None]
    if missing:
        raise BenchError(f"no successful sample for {missing}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
