"""Recursion without the call stack: a recursive function is written as a
generator that yields the generator of each sub-call and receives its
result, and `run` drives the calls from an explicit stack."""

from __future__ import annotations


def run(call):
    """The return value of the generator `call`."""
    stack = [call]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value
