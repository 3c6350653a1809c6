"""One configuration object for the graph-execution knob.

Training has two execution paths: eager autograd, and the verbatim
:class:`~repro.autograd.graph.executor.CompiledStep` replay of a traced
step.  :class:`CompileConfig` selects between them as a
frozen, picklable value (safe to ship to DSE pool workers) that defers an
unset field to ``REPRO_COMPILE_STEP`` at use time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .executor import compile_step_default

__all__ = ["CompileConfig"]


@dataclass(frozen=True)
class CompileConfig:
    """Whether training steps are compiled, as one immutable value.

    ``compile_step=None`` means "defer to ``REPRO_COMPILE_STEP`` at use
    time", so a default-constructed config behaves exactly like passing no
    knob at all.
    """

    compile_step: Optional[bool] = None

    @classmethod
    def resolve(cls, config: Optional["CompileConfig"] = None
                ) -> "CompileConfig":
        """Normalize an optional config: None becomes the default config."""
        if config is None:
            return cls()
        if not isinstance(config, CompileConfig):
            raise TypeError(
                f"compile_config must be a CompileConfig, got {config!r}")
        return config

    def want_compile(self) -> bool:
        """Whether step compilation is enabled (env-defaulted)."""
        if self.compile_step is not None:
            return bool(self.compile_step)
        return compile_step_default()

    def want_loop(self) -> bool:
        # Kept for perfbench/unit.py:resolved_config; loop capture is gone.
        return False

    def resolved_exec(self) -> str:
        # Kept for perfbench/unit.py:resolved_config; one replay executor.
        return "interp"
