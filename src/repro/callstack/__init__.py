"""Calling-context substrate.

CSOD's central data structure is the *allocation calling context*.  This
package models program call stacks explicitly so the runtime can
reproduce the paper's two-tier strategy (§III-A1):

* a **cheap key** — the first-level return address above the allocator
  plus the current stack offset (``__builtin_return_address`` analogue),
  computed on every allocation; and
* an **expensive full backtrace** — taken only on the first miss for a
  key, exactly like the paper's use of ``backtrace(3)``.

:mod:`repro.callstack.symbols` provides the ``addr2line`` analogue used
by the report generator.
"""

from repro.callstack.backtrace import Backtracer
from repro.callstack.contexts import (
    CallingContext,
    ContextKey,
    ContextInterner,
)
from repro.callstack.frames import CallSite, CallStack, Frame, FrameChain
from repro.callstack.symbols import SymbolTable

__all__ = [
    "Backtracer",
    "CallingContext",
    "ContextKey",
    "ContextInterner",
    "CallSite",
    "CallStack",
    "Frame",
    "FrameChain",
    "SymbolTable",
]
