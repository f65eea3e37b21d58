"""Trace pins: a sha256 over every body's lowering.

The golden-stats pins hold only what the engine makes of a trace, and
clr-*, bht, pre and regx-random have none, so these digests are the
guard on what each workload builder emits. For every body, in
``walk_bodies`` order, the digest covers the op of each instruction,
COMPUTE cycles, LOAD/STORE line spans (at 128-byte lines, with offsets
relative to the body's own lines) and the shape of each launch. It
reads the in-memory trace, so it does not depend on the record format or on how bodies
share an arena.

Regenerate after an intentional change to a workload or to datagen::

    PYTHONPATH=src python scripts/regenerate_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from pathlib import Path

import pytest

from repro.gpu.serialize import spec_from_bytes, spec_to_bytes
from repro.gpu.trace import walk_bodies
from repro.harness.registry import benchmark_names, load_benchmark
from tests.conftest import body_lines, warp_columns

DIGEST_PATH = Path(__file__).resolve().parent / "trace_digests.json"
SEED = 7
#: the inputs pinned at ``small`` besides every benchmark at ``tiny``
SMALL = ("bfs-citation", "sssp-cage15", "clr-graph500", "amr")


def digest_cases() -> list[tuple[str, str]]:
    return [(name, "tiny") for name in benchmark_names()] + [(name, "small") for name in SMALL]


def _le(values) -> bytes:
    column = array("q", values)
    if sys.byteorder != "little":
        column.byteswap()
    return column.tobytes()


def trace_digest(spec) -> str:
    digest = hashlib.sha256()
    for body in walk_bodies(spec.bodies):
        digest.update(struct.pack("<q", body.num_warps))
        for ops, args, offs in warp_columns(body):
            digest.update(struct.pack("<q", len(ops)))
            digest.update(_le(ops) + _le(args) + _le(offs))
        lines = body_lines(body)
        digest.update(struct.pack("<q", len(lines)) + _le(lines))
        for launch in body.launches():
            shape = [
                launch.threads_per_tb,
                launch.regs_per_thread,
                launch.smem_per_tb,
                launch.name,
                len(launch.bodies),
            ]
            digest.update(json.dumps(shape).encode("utf-8"))
    return digest.hexdigest()


def measure(name: str, scale: str) -> str:
    return trace_digest(load_benchmark(name, scale=scale, seed=SEED).kernel())


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(DIGEST_PATH) as f:
        return json.load(f)


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(f"{name}@{scale}" for name, scale in digest_cases())


@pytest.mark.parametrize("name,scale", digest_cases())
def test_trace_digest(name, scale, pinned):
    assert measure(name, scale) == pinned[f"{name}@{scale}"], (
        f"{name} at {scale} builds a different trace; if intended, bump "
        "TRACE_VERSION and regenerate tests/trace_digests.json"
    )


@pytest.mark.parametrize("name", benchmark_names())
def test_stored_trace_has_the_built_digest(name):
    spec = load_benchmark(name, scale="tiny", seed=SEED).kernel()
    assert trace_digest(spec_from_bytes(spec_to_bytes(spec))) == trace_digest(spec)
