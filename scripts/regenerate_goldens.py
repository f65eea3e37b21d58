#!/usr/bin/env python3
"""Regenerate the golden fixtures after an intentional behaviour change.

Run from the repository root::

    PYTHONPATH=src python scripts/regenerate_goldens.py

It rewrites ``tests/golden_stats.json``, ``tests/golden_equivalence.json``
and ``tests/golden_variants.json``.
Review the diff: every changed number should be explainable by the
change you just made (and bump ``ENGINE_VERSION`` for a semantic change).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from repro.harness.execution import run_spec  # noqa: E402
from tests.test_golden import COMBOS, GOLDEN_PATH, measure  # noqa: E402
from tests.test_golden_equivalence import pinned_keys, spec_for_key  # noqa: E402


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


if __name__ == "__main__":
    main()
