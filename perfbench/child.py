"""One repetition of a workload, in a fresh interpreter.

Usage (``fockcheck`` must be importable, e.g. with ``PYTHONPATH=src``)::

    python3 perfbench/child.py probe MODULE
    python3 perfbench/child.py suites SEED TRACE SUITE...
    python3 perfbench/child.py cli ARG...

``probe`` imports MODULE and exits.  ``suites`` runs the named suites in
process, in order, with the tracer of ``layers.py`` installed when TRACE is
1.  ``cli`` calls ``fockcheck.cli.main(ARGS)`` as the installed console
script would, so its stdout is the CLI's own.  Every mode ends its stdout
with one JSON line; ``import_done`` is the ``time.monotonic()`` reading
right after the import of fockcheck, which the parent compares with its
own spawn time.
"""

import json
import sys
import time

mode = sys.argv[1]
if mode == "cli":
    import fockcheck.cli
else:
    import fockcheck  # noqa: F401
import_done = time.monotonic()

if mode == "probe":
    print(json.dumps({"import_done": import_done}))
elif mode == "cli":
    status = fockcheck.cli.main(sys.argv[2:])
    sys.stdout.flush()
    print(json.dumps({"import_done": import_done}))
    sys.exit(status)
elif mode == "suites":
    import contextlib

    from fockcheck import virasoro
    from fockcheck.suites import run_suite

    from inputs import suite_params
    from layers import Tracer

    seed, traced, names = int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    params = suite_params(seed)
    tracer = Tracer() if traced else None
    reports, suite_wall = [], {}
    with tracer or contextlib.nullcontext():
        for name in names:
            start = time.perf_counter()
            for rep in run_suite(name, **params.get(name, {})):
                reports.append([rep.check, rep.cases_run, rep.passed])
            suite_wall[name] = time.perf_counter() - start
    memo = virasoro._sugawara_on_monomial.cache_info()
    print(
        json.dumps(
            {
                "import_done": import_done,
                "reports": reports,
                "suite_wall_s": suite_wall,
                "sugawara": {"hits": memo.hits, "misses": memo.misses, "entries": memo.currsize},
                "layers": tracer.values if tracer else None,
                "spans": tracer.spans if tracer else None,
            }
        )
    )
else:
    sys.exit(f"unknown mode {mode!r}")
