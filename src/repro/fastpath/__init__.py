"""Compiled fast-path execution kernel (bit-identical to the interpreter).

``repro.fastpath`` lowers each procedure's dense tuple code into generated
Python source — straight-line superblock traces with registers held in local
variables, inline ALU/compare operators, and an inline copy of the memory
hierarchy's L1-hit and clean-miss paths — compiled once per (procedure, mode)
with ``exec`` and driven by a small trampoline (:mod:`repro.fastpath.kernel`)
that handles calls, returns, burst transitions and slice limits through the
exact reference code paths.  Every other memory operation calls
:class:`~repro.machine.hierarchy.MemoryHierarchy`'s own ``access`` and
``issue_prefetch``; there is no second implementation of the hierarchy.

The contract is bit-identity, not approximate agreement: a fast run must
produce the same :class:`~repro.interp.interpreter.ExecStats`, hierarchy
counters, per-stream attribution and telemetry as the reference dispatch
loop (enforced by ``check_fastpath_identity`` in ``repro-bench verify`` and
by ``tests/test_fastpath_equiv.py``).

The toggle is layered:

* ``Interpreter.run(..., fast=True/False)`` / ``run_slice(..., fast=...)``
  force one execution;
* with ``fast=None`` (the default everywhere) the ``REPRO_FASTPATH``
  environment variable decides, so the flag reaches engine pool workers,
  tenancy slices and durability resume loops without any plumbing;
* ``repro-bench --fast`` simply sets ``REPRO_FASTPATH=1`` for the process
  (and therefore for its pool workers).

Compiled code is cached in a :class:`weakref.WeakKeyDictionary` keyed on the
procedure object — never on the procedure itself — so pickled checkpoints
(:mod:`repro.durability.checkpoint`) carry no unpicklable generated
functions and a restored run transparently recompiles on first use.  The
trampoline's per-run memo over that cache is keyed by the procedure object
too, never by its ``id()``, so a procedure copy patched in mid-run can never
pick up the compiled code of a freed copy that had the same address.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment toggle honoured when ``fast=None`` is passed (the default).
FASTPATH_ENV = "REPRO_FASTPATH"

_TRUTHY = ("1", "true", "on", "yes")


def fastpath_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the fastpath toggle: explicit flag wins, else the environment."""
    if explicit is not None:
        return bool(explicit)
    return os.environ.get(FASTPATH_ENV, "").strip().lower() in _TRUTHY


def set_fastpath(enabled: bool) -> None:
    """Set :data:`FASTPATH_ENV` for this process (inherited by pool workers)."""
    if enabled:
        os.environ[FASTPATH_ENV] = "1"
    else:
        os.environ.pop(FASTPATH_ENV, None)


__all__ = ["FASTPATH_ENV", "fastpath_enabled", "set_fastpath"]
