"""Call sites, frames, and stacks."""

import pytest

from repro.callstack.frames import CallSite, CallStack, FrameChain
from repro.errors import ReproError


def site(function="f", frame_size=48, module="APP"):
    return CallSite(module, "file.c", 10, function, frame_size=frame_size)


def test_call_sites_get_unique_return_addresses():
    a, b = site("a"), site("b")
    assert a.return_address != b.return_address


def test_location_format():
    s = CallSite("OPENSSL", "ssl/t1_lib.c", 2588, "tls1_process_heartbeat")
    assert s.location() == "OPENSSL/ssl/t1_lib.c:2588"
    assert str(s) == s.location()


def test_site_rejects_bad_frame_size():
    with pytest.raises(ReproError):
        CallSite("A", "f.c", 1, "f", frame_size=0)


def test_site_rejects_negative_line():
    with pytest.raises(ReproError):
        CallSite("A", "f.c", -5, "f")


def test_push_pop():
    stack = CallStack()
    frame = stack.push(site())
    assert stack.depth == 1
    assert stack.top() is frame
    assert stack.pop() is frame
    assert stack.depth == 0


def test_pop_empty_rejected():
    with pytest.raises(ReproError):
        CallStack().pop()


def test_stack_offset_tracks_frame_sizes():
    stack = CallStack()
    stack.push(site("a", frame_size=64))
    stack.push(site("b", frame_size=32))
    assert stack.stack_offset == 96
    stack.pop()
    assert stack.stack_offset == 64


def test_calling_context_manager():
    stack = CallStack()
    with stack.calling(site("a")):
        assert stack.depth == 1
        with stack.calling(site("b")):
            assert stack.depth == 2
    assert stack.depth == 0


def test_context_manager_pops_on_exception():
    stack = CallStack()
    with pytest.raises(RuntimeError):
        with stack.calling(site()):
            raise RuntimeError("boom")
    assert stack.depth == 0


def test_caller_levels():
    stack = CallStack()
    a, b = site("a"), site("b")
    stack.push(a)
    stack.push(b)
    assert stack.caller(0).site is b
    assert stack.caller(1).site is a
    assert stack.caller(2) is None


def test_frames_innermost_first():
    stack = CallStack()
    a, b = site("a"), site("b")
    stack.push(a)
    stack.push(b)
    frames = stack.frames_innermost_first()
    assert [f.site for f in frames] == [b, a]


def test_return_addresses_order():
    stack = CallStack()
    a, b = site("a"), site("b")
    stack.push(a)
    stack.push(b)
    assert stack.return_addresses() == (b.return_address, a.return_address)


def test_empty_stack_top_is_none():
    stack = CallStack()
    assert stack.top() is None
    assert len(stack) == 0


def test_iteration_outermost_first():
    stack = CallStack()
    a, b = site("a"), site("b")
    stack.push(a)
    stack.push(b)
    assert [f.site for f in stack] == [a, b]


# ----------------------------------------------------------------------
# Whole-chain pushes
# ----------------------------------------------------------------------
def test_call_under_pushes_the_chain_for_the_call_only():
    base, a, b = site("base"), site("a", frame_size=64), site("b", frame_size=32)
    stack = CallStack()
    stack.push(base)

    def probe(tag):
        return tag, stack.depth, stack.stack_offset, [f.site for f in stack]

    seen = stack.call_under(FrameChain.of([a, b]), probe, "x")
    assert seen == ("x", 3, 48 + 96, [base, a, b])
    assert (stack.depth, stack.stack_offset) == (1, 48)


def test_call_under_restores_the_stack_when_malloc_raises():
    from repro.core import CSODConfig, CSODRuntime
    from repro.core.fastpath import FastAllocDealloc
    from repro.errors import OutOfMemoryError
    from repro.workloads.base import SimProcess

    process = SimProcess(seed=0)
    runtime = CSODRuntime(process.machine, process.heap, CSODConfig(), seed=0)
    assert isinstance(runtime.monitor, FastAllocDealloc)
    stack = process.main_thread.call_stack
    outer = site("outer")
    stack.push(outer)
    chain = FrameChain.of([site("a"), site("b"), site("alloc")])
    with pytest.raises(OutOfMemoryError):
        stack.call_under(chain, process.heap.malloc, process.main_thread, 1 << 40)
    assert (stack.depth, stack.stack_offset) == (1, outer.frame_size)
    assert stack.top().site is outer


def test_call_under_an_empty_chain_leaves_the_stack_unchanged():
    a, b = site("a"), site("b")
    stack = CallStack()
    stack.push(a)
    stack.push(b)
    seen = stack.call_under(FrameChain.of([]), lambda: stack.depth)
    assert seen == 2
    assert [f.site for f in stack] == [a, b]
    assert stack.stack_offset == a.frame_size + b.frame_size


def test_chain_push_interns_the_context_the_guards_give():
    from repro.callstack.contexts import ContextInterner

    sites = [site("main", frame_size=64), site("mid", 32), site("alloc")]
    guarded, whole = CallStack(), CallStack()
    guarded_interner, whole_interner = ContextInterner(), ContextInterner()
    guards = [guarded.calling(s) for s in sites]
    for guard in guards:
        guard.__enter__()
    expected = guarded_interner.intern(guarded)
    for guard in reversed(guards):
        guard.__exit__(None, None, None)
    got = whole.call_under(FrameChain.of(sites), whole_interner.intern, whole)
    assert got == expected
    assert got[1].frames == expected[1].frames
