"""Shared fixtures: small machines and cached tiny workloads."""

from __future__ import annotations

from array import array

import pytest

from repro.gpu.config import CacheConfig, GPUConfig
from repro.workloads import make_workload


@pytest.fixture(autouse=True, scope="session")
def hermetic_cache_dir(tmp_path_factory):
    """Point the default result cache (``$REPRO_CACHE_DIR``) at a
    per-session temporary directory, so a command run without
    ``--cache-dir`` neither writes ``.repro-cache/`` into the directory
    pytest runs from nor is answered from an earlier session's."""
    path = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(path))
        yield path


@pytest.fixture
def small_config() -> GPUConfig:
    """A 4-SMX machine with small caches — fast and easy to saturate."""
    return GPUConfig(
        num_smx=4,
        max_threads_per_smx=256,
        max_tbs_per_smx=4,
        max_registers_per_smx=16384,
        shared_mem_per_smx=16 * 1024,
        l1=CacheConfig(size_bytes=4 * 1024, associativity=4),
        l2=CacheConfig(size_bytes=32 * 1024, associativity=8),
        dtbl_launch_latency=50,
        cdp_launch_latency=400,
    )


#: (application, input) pairs covering every application once
TINY_PAIRS = [
    ("amr", None),
    ("bht", None),
    ("bfs", "citation"),
    ("clr", "graph500"),
    ("regx", "darpa"),
    ("pre", None),
    ("join", "gaussian"),
    ("sssp", "cage15"),
]

_tiny_cache: dict[tuple[str, str | None], object] = {}


def tiny_workload(app: str, inp: str | None = None):
    """Session-cached tiny workload instances (builds are not free)."""
    key = (app, inp)
    if key not in _tiny_cache:
        w = make_workload(app, inp, scale="tiny")
        w.kernel()
        _tiny_cache[key] = w
    return _tiny_cache[key]


@pytest.fixture(params=TINY_PAIRS, ids=lambda p: f"{p[0]}-{p[1] or 'default'}")
def any_tiny_workload(request):
    return tiny_workload(*request.param)


def warp_columns(body) -> list[tuple[array, array, array]]:
    """``(ops, args, offs)`` of each warp of ``body``, read out of its arena.

    ``offs`` are body-relative: a LOAD/STORE's start in the body's own
    line pool (``body_lines``), 0 for a COMPUTE or LAUNCH, the form the
    pinned trace digests hash, so a body reads the same wherever its
    arena puts it.
    """
    from repro.gpu.trace import OP_LOAD, OP_STORE

    arena, bounds = body.arena, body.warp_bounds
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        ops = arena.ops[lo:hi]
        offs = array(
            "q",
            [
                o - body.line_lo if op == OP_LOAD or op == OP_STORE else 0
                for op, o in zip(ops, arena.offs[lo:hi])
            ],
        )
        out.append((ops, arena.args[lo:hi], offs))
    return out


def body_lines(body) -> array:
    """The coalesced line pool of ``body`` alone."""
    return body.arena.lines[body.line_lo : body.line_hi]


def access_lines(body):
    """``(op, lines)`` of each LOAD/STORE of ``body``, in trace order:
    the coalesced 128-byte lines the access spans, out of its arena."""
    from repro.gpu.trace import OP_LOAD, OP_STORE

    arena, bounds = body.arena, body.warp_bounds
    ops, args, offs, lines = arena.ops, arena.args, arena.offs, arena.lines
    for pc in range(bounds[0], bounds[-1]):
        op = ops[pc]
        if op == OP_LOAD or op == OP_STORE:
            yield op, lines[offs[pc] : offs[pc] + args[pc]]
