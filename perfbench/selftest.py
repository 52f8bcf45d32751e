"""Self-test of the benchmark: same seed, same work and same outputs.

    python3 perfbench/selftest.py [workload ...]

Runs every workload (or the named ones) twice with one seed and
``--trace 1``, then asserts that the two runs report identical work
counts and identical output digests, that no operation failed, and
that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
The simulator is deterministic, so any difference is a bug.  Takes
about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str) -> tuple[str, str, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=180).stdout.splitlines()
    counts = next(line for line in out if line.startswith("counts "))
    outputs = next(line for line in out if line.startswith("outputs "))
    return counts, outputs, json.loads(out[-1])


def main(workloads: list[str]) -> int:
    import run as bench

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] \
        == list(bench.END_TO_END), "end_to_end names differ from run.py"
    assert [m["name"] for m in declared["per_layer"]] \
        == list(bench.PER_LAYER), "per_layer names differ from run.py"
    for workload in workloads or [w["name"] for w in declared["workloads"]]:
        first, second = run(workload), run(workload)
        assert first[0] == second[0], f"{workload}: counts differ\n" \
            f"{first[0]}\n{second[0]}"
        assert first[1] == second[1], f"{workload}: outputs differ"
        for result in (first[2], second[2]):
            assert result["correct"] and result["failed"] == 0, result
        counts = {name for name, unit in bench.PER_LAYER.items()
                  if unit == "count"}
        for name in counts:
            assert first[2]["metrics"][name] == second[2]["metrics"][name], \
                f"{workload}: {name} differs"
        print(f"{workload}: {first[0]}\n{workload}: {first[1]}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
