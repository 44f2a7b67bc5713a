"""Regenerate reference.json: the content hash and the expected loss and
accuracy of every input set of every workload.

    python3 benchmarks/record_reference.py [workload ...]

Run it only when a workload's definition changes on purpose, at a commit
whose outputs are trusted; the benchmark fails any run whose inputs or
outcomes differ from this record.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads
from hostspeed import HostGauge
from workloads import POOL, WORKLOADS, Library, file_hashes


def record(workload, lib: Library) -> dict:
    entries = {}
    for index in sorted({workload.input_index(seed) for seed in range(POOL)}):
        directory = run.input_dir(workload)
        directory.mkdir(parents=True, exist_ok=True)
        workload.prepare(lib, index, directory)
        state = workload.setup(lib, directory)
        unit = workload.unit(lib, state, run.OUT / "work", HostGauge())
        if unit.problems or unit.failed:
            raise SystemExit(f"{workload.name} input set {index}: {unit.problems}, {unit.failed} failed")
        entries[str(index)] = {
            "inputs": file_hashes(directory, workload.files),
            "loss": unit.loss,
            "accuracy": unit.accuracy,
        }
        print(f"{workload.name} {index}: loss {unit.loss!r} accuracy {unit.accuracy!r}", file=sys.stderr)
    return entries


def main(names: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    doc = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"workloads": {}}
    lib = Library()
    for name in names or sorted(WORKLOADS):
        doc["workloads"][name] = record(WORKLOADS[name], lib)
    doc["environment"] = run.environment()
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
