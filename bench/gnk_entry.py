"""The `gnk` command as the cli workload runs it: import gnk.cli, call main.

    python3 bench/gnk_entry.py <gnk arguments>

This is what the installed `gnk` script does.  With BENCH_SPANS_OUT set it
also times the import, wraps gnk's layer functions, and when main returns
writes the spans, counters and timings to that file as JSON.
"""

import os
import sys
import time

started = time.perf_counter()
from gnk import cli  # noqa: E402

imported = time.perf_counter()
OUT = os.environ.get("BENCH_SPANS_OUT")
if OUT is None:
    sys.exit(cli.main())

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer(int(os.environ.get("BENCH_RUN_ID", "0")))
spans.install(tracer)
main_started = time.perf_counter()
code = cli.main()
main_s = time.perf_counter() - main_started
with open(OUT, "w", encoding="utf-8") as fh:
    json.dump(
        {
            "import_s": imported - started,
            "main_s": main_s,
            "spans": tracer.spans,
            "counters": tracer.counters,
        },
        fh,
    )
sys.exit(code)
