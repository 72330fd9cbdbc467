"""Recursion without the call stack: a recursive function is written as a
generator that yields the argument tuple of each sub-call and receives its
result; `run` makes every call and drives them from an explicit stack.  A
generator never names itself, so its closure forms no reference cycle."""

from __future__ import annotations


def run(fn, *args):
    """The return value of the generator `fn(*args)`."""
    stack = [fn(*args)]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(fn(*sub))
            value = None
    return value
