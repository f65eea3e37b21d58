"""A stub kept for one reader: ``benchmarks/suite/spans.py``.

The benchmark suite imports this module and wraps :func:`compile_body`
to count trace compiles. Traces are lowered once, at 128-byte lines,
when they are built (:mod:`repro.gpu.trace`), and nothing in the
program calls this function.
"""

from __future__ import annotations

from repro.gpu.trace import LINE_BYTES, TBBody


def compile_body(body: TBBody, line_bytes: int) -> TBBody:
    """``body`` itself at ``LINE_BYTES``; no other line size exists."""
    if line_bytes != LINE_BYTES:
        raise ValueError(f"traces are lowered at {LINE_BYTES}-byte lines only, not {line_bytes}")
    return body
