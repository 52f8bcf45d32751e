"""Regenerate ``reference.json``: digests of every execution-driven run
any workload can make.

    python3 perfbench/make_reference.py

Run it only when the simulated statistics are meant to change; a
speed-up must leave every digest as it is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import traffic  # noqa: E402
from repro.experiments import Runner  # noqa: E402


def main() -> int:
    specs = traffic.execution_specs()
    summaries = Runner(max_workers=2).run_many(specs)
    digests = {}
    for spec, summary in zip(specs, summaries):
        problems = checks.invariant_problems(summary)
        if problems:
            print(f"{checks.label(spec)}: {'; '.join(problems)}",
                  file=sys.stderr)
            return 1
        digests[checks.label(spec)] = checks.digest(summary)
    with checks.REFERENCE.open("w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    print(f"{len(digests)} digests written to {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
