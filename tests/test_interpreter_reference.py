"""The interpreter and slice suites again, on the reference dispatch loop.

``tests/test_interpreter.py`` and ``tests/test_interp_slices.py`` run on the
default compiled kernel.  The reference loop is still the oracle, the
resync and slice-tail step and the path for instance-patched hierarchies,
so it keeps its own unit tests: this module collects the same classes with
their ``fast`` fixture overridden.
"""

import pytest

from tests.test_interp_slices import TestSliceEquivalence, TestSliceGuards  # noqa: F401
from tests.test_interpreter import (  # noqa: F401
    TestArithmetic,
    TestControlFlow,
    TestCycleAccounting,
    TestMemoryOps,
)


@pytest.fixture
def fast():
    return False
