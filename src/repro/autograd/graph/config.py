"""Constant configuration probe kept for the benchmark harness.

Every training step runs as a :class:`~repro.autograd.graph.executor.
CompiledStep` replay; there is no execution knob.  ``perfbench/unit.py``
still records the execution path through this object, so it answers with
constants.
"""

from __future__ import annotations

__all__ = ["CompileConfig"]


class CompileConfig:
    """The one execution path, reported the way ``perfbench/unit.py``
    reads it: compiled step, interpreted replay, no loop capture."""

    @classmethod
    def resolve(cls, config=None) -> "CompileConfig":
        return cls()

    def want_compile(self) -> bool:
        return True

    def want_loop(self) -> bool:
        return False

    def resolved_exec(self) -> str:
        return "interp"
