"""The shared memory hierarchy a tenancy co-run executes on.

The tenant lanes themselves — address translation, per-tenant counters,
owner-routed telemetry and ledger hooks, the cross-tenant pollution matrix
and its reconciliation — belong to
:class:`~repro.machine.hierarchy.MemoryHierarchy`, whose single-tenant form
is lane 0 of the same code.  :class:`TenantHierarchy` is the class the
scheduler builds, so tenancy runs can be told apart from single-tenant ones
by type.
"""

from __future__ import annotations

from repro.machine.hierarchy import MemoryHierarchy


class TenantHierarchy(MemoryHierarchy):
    """A :class:`MemoryHierarchy` shared by the tenants of one co-run.

    ``access`` and ``issue_prefetch`` are bound in this class's own namespace
    (not merely inherited), so instrumentation that wraps methods on a class
    — the end-to-end benchmark's layer probe, for one — can time tenancy
    runs separately from single-tenant runs, and counts each call once.
    Like a wrapper on ``MemoryHierarchy``, such a class-level wrapper keeps
    the compiled kernel on its inline memory path and sees only the accesses
    of instructions the trampoline runs on the reference loop; a method
    patched on an instance instead sends that hierarchy's runs to the
    reference loop, so it sees every call.
    """

    access = MemoryHierarchy.access
    issue_prefetch = MemoryHierarchy.issue_prefetch
