"""Run one randcl CLI request with the span wrappers installed.

    python3 perfbench/traced_cli.py SUMMARY.json [randcl arguments...]

Prints exactly what ``python -m randcl.cli`` prints and exits with its
code; the span summary of the request goes to SUMMARY.json.
"""

import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import randcl.cli
    import_ms = (time.perf_counter() - start) * 1000.0

    import json

    import tracer as tr

    t = tr.Tracer()
    bindings = tr.install(t)
    try:
        t.enter("cli.main")
        try:
            code = randcl.cli.main(argv)
        finally:
            t.exit()
        sys.stdout.flush()
    finally:
        tr.restore(bindings)
    summary = t.summary()
    summary["import_ms"] = import_ms
    qe = getattr(sys.modules.get("randcl.theory"), "qe", None)
    cache_info = getattr(qe, "cache_info", None)
    summary["qe_cache"] = list(cache_info()[:2]) if cache_info else None
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
