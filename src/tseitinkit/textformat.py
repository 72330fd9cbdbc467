"""Line reader shared by the text-format parsers; its errors name the line."""

from __future__ import annotations

from typing import NamedTuple


class Line(NamedTuple):
    number: int  # 1-based, counting every line of the input
    text: str  # stripped
    fields: list[str]

    def error(self, message: str) -> ValueError:
        return ValueError(f"line {self.number}: {message}")

    def ints(self, count: int | None = None, start: int = 1) -> list[int]:
        """The fields from `start` on as integers; exactly `count` of them
        unless count is None."""
        values = self.fields[start:]
        if count is not None and len(values) != count:
            raise self.error(f"expected {count} numbers in {self.text!r}")
        try:
            return list(map(int, values))
        except ValueError:
            raise self.error(f"not a list of integers: {self.text!r}") from None


def records(text: str, comments: tuple[str, ...] = ("#",)):
    """Each non-blank line that starts with none of `comments`."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith(comments):
            yield Line(number, line, line.split())
