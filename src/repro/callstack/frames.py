"""Call sites, stack frames, and per-thread call stacks.

A :class:`CallSite` is a static program location (module, file, line,
function) with a synthetic return address and frame size.  Workloads are
built from call sites; pushing one onto a :class:`CallStack` creates a
dynamic :class:`Frame`.  The stack tracks the running *stack offset* —
the sum of active frame sizes — because CSOD keys contexts on
(first-level return address, stack offset), and two different paths into
the same allocation wrapper usually differ in that offset.

A :class:`FrameChain` is a whole call chain built once — its frames and
their summed size — so a replay loop can push it with
:meth:`CallStack.call_under` in one list extend and one offset add
instead of one guard and one new frame per site.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ReproError

# Synthetic code addresses start here; each call site gets a distinct one.
_TEXT_BASE = 0x40_0000
_SITE_STRIDE = 0x20

_site_counter = itertools.count()

T = TypeVar("T")


def _next_return_address() -> int:
    return _TEXT_BASE + next(_site_counter) * _SITE_STRIDE


@dataclass(frozen=True, slots=True)
class CallSite:
    """A static call site in a (simulated) binary or library."""

    module: str
    file: str
    line: int
    function: str
    frame_size: int = 48
    return_address: int = field(default_factory=_next_return_address)

    def __post_init__(self):
        if self.frame_size <= 0:
            raise ReproError(f"frame size must be positive, got {self.frame_size}")
        if self.line < 0:
            raise ReproError(f"line number cannot be negative, got {self.line}")

    def location(self) -> str:
        """``module/file:line`` — the shape of the paper's Fig. 6 lines."""
        return f"{self.module}/{self.file}:{self.line}"

    def __str__(self) -> str:
        return self.location()


@dataclass(frozen=True, slots=True)
class Frame:
    """A dynamic activation of a call site."""

    site: CallSite

    @property
    def return_address(self) -> int:
        return self.site.return_address

    def __str__(self) -> str:
        return self.site.location()


@dataclass(frozen=True, slots=True)
class FrameChain:
    """A call chain's frames (outermost first) and their summed size.

    :class:`Frame` is frozen and compared by value, so every push of a
    chain can share the same frame objects.
    """

    frames: Tuple[Frame, ...]
    frame_bytes: int

    @classmethod
    def of(cls, sites: Sequence[CallSite]) -> "FrameChain":
        return cls(
            tuple(Frame(site) for site in sites),
            sum(site.frame_size for site in sites),
        )


class CallStack:
    """A thread's stack of active frames, innermost last."""

    __slots__ = ("_frames", "_offset")

    def __init__(self):
        self._frames: List[Frame] = []
        self._offset = 0

    # ------------------------------------------------------------------
    # Push/pop
    # ------------------------------------------------------------------
    def push(self, site: CallSite) -> Frame:
        frame = Frame(site)
        self._frames.append(frame)
        self._offset += site.frame_size
        return frame

    def pop(self) -> Frame:
        if not self._frames:
            raise ReproError("pop from an empty call stack")
        frame = self._frames.pop()
        self._offset -= frame.site.frame_size
        return frame

    def calling(self, site: CallSite) -> "_FrameGuard":
        """Context manager that pushes ``site`` for the ``with`` body."""
        return _FrameGuard(self, site)

    def call_under(self, chain: FrameChain, fn: Callable[..., T], *args) -> T:
        """``fn(*args)`` with ``chain`` pushed on top of the stack.

        The same stack as one nested :meth:`calling` guard per site, but
        pushed whole.  Afterwards the stack is truncated back to the
        depth and offset it had before the push, also when ``fn``
        raises (an empty chain leaves it unchanged).
        """
        frames = self._frames
        depth = len(frames)
        offset = self._offset
        frames.extend(chain.frames)
        self._offset = offset + chain.frame_bytes
        try:
            return fn(*args)
        finally:
            del frames[depth:]
            self._offset = offset

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def stack_offset(self) -> int:
        """Current stack-pointer offset from the stack base."""
        return self._offset

    def top(self) -> Optional[Frame]:
        return self._frames[-1] if self._frames else None

    def caller(self, level: int = 0) -> Optional[Frame]:
        """Frame ``level`` levels above the top (0 = top itself).

        This is the ``__builtin_return_address(level)`` analogue: cheap,
        and usable without unwinding the whole stack.
        """
        index = len(self._frames) - 1 - level
        if index < 0:
            return None
        return self._frames[index]

    def frames_innermost_first(self) -> Tuple[Frame, ...]:
        """All frames, innermost first (the order backtrace(3) reports)."""
        return tuple(reversed(self._frames))

    def return_addresses(self) -> Tuple[int, ...]:
        """Return addresses, innermost first."""
        return tuple(f.return_address for f in reversed(self._frames))

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        top = self.top()
        where = str(top) if top else "<empty>"
        return f"CallStack(depth={self.depth}, top={where})"


class _FrameGuard:
    """``with stack.calling(site):`` pushes/pops around the body."""

    __slots__ = ("_stack", "_site")

    def __init__(self, stack: CallStack, site: CallSite):
        self._stack = stack
        self._site = site

    def __enter__(self) -> Frame:
        return self._stack.push(self._site)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.pop()
