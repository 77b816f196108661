"""Run one benchmark operation in a fresh interpreter and print its result.

    python3 bench/child.py '<spec as JSON>'

The spec is ``{"src": dir, "work": dir, "op": name, "trace": bool,
"op_id": str}``; ``"op": null`` only reports versions, and ``"op": "prep"``
writes the float-ingestion input into the work directory.  The last line of
standard output is one JSON object.  The first thing timed is ``import
vcs_irreps.cli``, the set-up every CLI call pays, numpy included.  The
operation is timed on its own, between two runs of :func:`calibrate`, and its
gate runs after the clock stops and outside any tracing.
"""

import sys
import time


def calibrate() -> float:
    """Time fixed work that runs no code of this repository.

    Exact rational sums stand for the exact-arithmetic layers, dense float
    products for the float ones.  run.py divides each operation's time by
    the mean of the runs before and after it, which cancels the machine's
    speed drift while the operation ran.
    """
    from fractions import Fraction

    import numpy as np

    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 40000):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[i % 1009] = acc.numerator % 7
    m = np.eye(500) + np.arange(250000.0).reshape(500, 500) / 2.5e8  # small: RSS stays the op's
    for _ in range(12):
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    import vcs_irreps.cli  # noqa: F401

    import_s = time.perf_counter() - start

    import contextlib
    import json
    import os
    import resource

    import numpy as np

    import vcs_irreps

    spec = json.loads(sys.argv[1])
    package = os.path.realpath(os.path.dirname(vcs_irreps.__file__))
    if os.path.dirname(package) != os.path.realpath(spec["src"]):
        print(f"vcs_irreps imported from {package}, not from {spec['src']}", file=sys.stderr)
        return 1
    result = {"import_s": import_s}
    name, work = spec["op"], spec["work"]

    if name is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
    elif name == "prep":
        from ops import INGEST_DOC, ingest_document

        with open(os.path.join(work, INGEST_DOC), "w") as fh:
            json.dump(ingest_document(), fh)
    else:
        from ops import OPERATIONS, GateError
        from spans import Tracer

        op = OPERATIONS[name]
        if op.output:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(work, op.output))
        tracer = Tracer(spec["op_id"]) if spec["trace"] else contextlib.nullcontext()
        result.update(status="ok", error=None, op_s=None)
        before = calibrate()
        try:
            with tracer:
                clock = time.perf_counter()
                output = op.run(work)
                result["op_s"] = time.perf_counter() - clock
            if op.output:
                result["doc_bytes"] = os.path.getsize(os.path.join(work, op.output))
            op.gate(output, work)
        except GateError as exc:
            result.update(status="wrong", error=f"GateError: {exc}")
        except Exception as exc:  # the library failed: record it, run.py counts it
            result.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        result["calibration_s"] = (before + calibrate()) / 2
        if spec["trace"]:
            result["trace"] = tracer.result()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
