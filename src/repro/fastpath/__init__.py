"""Compiled fast-path execution kernel (bit-identical to the interpreter).

``repro.fastpath`` lowers each procedure's dense tuple code into generated
Python source — straight-line superblock traces with registers held in local
variables, inline ALU/compare operators, and inline copies of the memory
hierarchy's common demand and prefetch outcomes — compiled once per
(procedure, mode) with ``exec`` and driven by a small trampoline
(:mod:`repro.fastpath.kernel`) that handles calls, returns, burst
transitions and slice limits through the exact reference code paths.  Every other memory operation calls
:class:`~repro.machine.hierarchy.MemoryHierarchy`'s own ``access`` and
``issue_prefetch``; there is no second implementation of the hierarchy.

The contract is bit-identity, not approximate agreement: a fast run must
produce the same :class:`~repro.interp.interpreter.ExecStats`, hierarchy
counters, per-stream attribution and telemetry as the reference dispatch
loop (enforced by ``check_fastpath_identity`` in ``repro-bench verify`` and
by ``tests/test_fastpath_equiv.py``).

The compiled kernel is the default execution path:
``Interpreter.run``/``run_slice`` and the engine, tenancy and durability
entry points take ``fast: bool = True``, and ``fast=False`` selects the
reference dispatch loop.  That loop stays as the oracle the kernel is
diffed against, as the one-instruction resync and slice-tail step, and as
the path for hierarchies whose ``access``/``issue_prefetch`` are patched on
the instance.

Compiled code is cached in a :class:`weakref.WeakKeyDictionary` keyed on the
procedure object — never on the procedure itself — so pickled checkpoints
(:mod:`repro.durability.checkpoint`) carry no unpicklable generated
functions and a restored run transparently recompiles on first use.  The
trampoline's per-run memo over that cache is keyed by the procedure object
too, never by its ``id()``, so a procedure copy patched in mid-run can never
pick up the compiled code of a freed copy that had the same address.
"""
