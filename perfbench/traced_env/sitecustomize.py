"""Traces a socket-session party process (traced benchmark runs only).

``run.py`` puts this directory on the ``PYTHONPATH`` that
``ClusterSupervisor`` hands its party processes and names an output
directory in ``PERFBENCH_TRACE_OUT``.  At interpreter start-up this file
times ``import repro.apps.cluster``, installs the layer wrappers, and at
exit writes the party's span summary to that directory.
"""

import os

_OUT = os.environ.get("PERFBENCH_TRACE_OUT")

if _OUT:
    import atexit
    import json
    import sys
    import time
    import warnings

    # ``python -m repro.apps.cluster`` re-executes the module imported
    # here as ``__main__``; that is intended, so silence runpy's notice.
    warnings.filterwarnings("ignore", "'repro.apps.cluster' found in sys.modules",
                            RuntimeWarning)
    _started = time.perf_counter()
    import repro.apps.cluster  # noqa: F401

    _imported = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    _tracer = layers.Tracer()
    _tracer.install()

    def _dump() -> None:
        party = sys.argv[sys.argv.index("--party") + 1] if "--party" in sys.argv else "?"
        runs = [
            (start, end)
            for name, _parent, start, end, _self, _bytes in _tracer.spans
            if name == "parties.runner.PartyRunner.run"
        ]
        path = os.path.join(_OUT, f"{party}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "party": party,
                    "import": [_started, _imported],
                    "runs": runs,
                    "summary": _tracer.summary(),
                },
                handle,
            )

    atexit.register(_dump)
