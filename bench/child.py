"""Fresh-interpreter roles of the benchmark.

    python bench/child.py setup <workload> <seed>
        Times one set-up in this fresh interpreter: import dirspaces,
        build the workload's measures and run one warm-up request of each
        class.  Prints {"setup_s": ...}.

    python bench/child.py cli <spans.json> <cli argv...>
        Traced launcher: installs the span wrappers, calls
        dirspaces.cli.main(argv), writes the spans to <spans.json> and
        exits with main's code (1 with a traceback if main raises, as
        `python -m dirspaces.cli` would).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (stdlib only: nothing of the program loads here)


def setup(workload: str, seed: int) -> float:
    """Seconds for import + measures + warm-ups in this interpreter."""
    slots = next(workloads.cycles(workload, seed))
    t0 = time.perf_counter()
    import execute

    if workload == "cli_cold":
        execute.warm_up_cli(slots)
    else:
        execute.InProcess().warm_up(slots)
    return time.perf_counter() - t0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import traceback

    import execute
    import spans

    execute.use_program()
    tracer = spans.Tracer()
    tracer.install()
    from dirspaces import cli

    tracer.request = 0
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.spans()))
    return code


if __name__ == "__main__":
    role = sys.argv[1]
    if role == "setup":
        print(json.dumps({"setup_s": setup(sys.argv[2], int(sys.argv[3]))}))
    elif role == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown role {role!r}")
