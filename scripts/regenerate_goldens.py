#!/usr/bin/env python3
"""Regenerate the golden fixtures after an intentional behaviour change.

Run from the repository root::

    PYTHONPATH=src python scripts/regenerate_goldens.py

It rewrites ``tests/golden_stats.json``, ``tests/golden_equivalence.json``,
``tests/golden_variants.json``, ``tests/trace_digests.json`` and
``tests/record_digests.json``. Review the diff: every changed number
should be explainable by the change you just made (and bump
``ENGINE_VERSION`` for a semantic change, ``TRACE_VERSION`` for a changed
trace digest, ``FORMAT_VERSION`` for a changed record).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from repro.harness.execution import run_spec  # noqa: E402
from tests.test_golden import COMBOS, GOLDEN_PATH, measure  # noqa: E402
from tests.test_golden_equivalence import pinned_keys, spec_for_key  # noqa: E402
from tests.test_serialize import RECORD_PATH, measure_record  # noqa: E402
from tests.test_trace_digests import DIGEST_PATH, digest_cases  # noqa: E402
from tests.test_trace_digests import measure as measure_trace  # noqa: E402


def main() -> None:
    golden = {}
    for app, inp, sched, model in COMBOS:
        full_name, measured = measure(app, inp, sched, model)
        golden[f"{full_name}|{sched}|{model}"] = measured
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} entries)")

    for path, keys in pinned_keys().items():
        pins = {key: dict(sorted(run_spec(spec_for_key(key)).to_dict().items())) for key in keys}
        with open(path, "w") as f:
            json.dump(pins, f, indent=1)
        print(f"wrote {path} ({len(pins)} entries)")

    digests = {f"{name}@{scale}": measure_trace(name, scale) for name, scale in digest_cases()}
    with open(DIGEST_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {DIGEST_PATH} ({len(digests)} entries)")

    records = {f"{name}@{scale}": measure_record(name, scale) for name, scale in digest_cases()}
    with open(RECORD_PATH, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {RECORD_PATH} ({len(records)} entries)")


if __name__ == "__main__":
    main()
