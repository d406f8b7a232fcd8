"""Strand diagrams: ordered crossings [i, j] on n strands, and their text form.

A leaf of the package: it imports no other strandtrace module, so the
shapes of ``orders`` and the calculus of ``diagrams`` both build on it.
"""

from typing import NamedTuple


class Crossing(NamedTuple):
    i: int
    j: int

    @property
    def size(self):
        return self.j - self.i + 1


class StrandDiagram:
    """Ordered (bottom to top) crossings on n strands; immutable."""

    __slots__ = ("n", "crossings")

    def __init__(self, n, crossings=()):
        if n < 0:
            raise ValueError("strand count must be nonnegative")
        normalized = []
        for c in crossings:
            c = Crossing(int(c[0]), int(c[1]))
            if not (1 <= c.i < c.j <= n):
                raise ValueError("crossing %r does not fit on %d strands" % (tuple(c), n))
            normalized.append(c)
        self.n = n
        self.crossings = tuple(normalized)

    @classmethod
    def _trusted(cls, n, crossings):
        """The diagram on a tuple of Crossings that already fit on n strands;
        nothing is checked or converted."""
        diagram = object.__new__(cls)
        diagram.n = n
        diagram.crossings = crossings
        return diagram

    def is_staircase_like(self):
        """Left and right endpoints both strictly increasing bottom to top."""
        return _staircase_like(self.crossings)

    def top(self):
        """The last (right-most) crossing, or None."""
        return self.crossings[-1] if self.crossings else None

    def sort_key(self):
        return (self.n, self.crossings)

    def to_json_dict(self):
        return {"n": self.n, "crossings": [list(c) for c in self.crossings]}

    def __eq__(self, other):
        return (
            isinstance(other, StrandDiagram)
            and self.n == other.n
            and self.crossings == other.crossings
        )

    def __hash__(self):
        return hash((self.n, self.crossings))

    def __repr__(self):
        return "StrandDiagram(%d, %s)" % (self.n, [tuple(c) for c in self.crossings])


def format_diagram(diagram):
    """Text form "n=4; [2,3] [1,2]" (crossings bottom to top)."""
    body = " ".join("[%d,%d]" % (c.i, c.j) for c in diagram.crossings)
    return "n=%d;%s" % (diagram.n, " " + body if body else "")


def parse_diagram(text):
    """Inverse of format_diagram."""
    head, _, tail = text.partition(";")
    head = head.strip()
    if not head.startswith("n="):
        raise ValueError("diagram text must start with 'n=': %r" % text)
    n = int(head[2:])
    crossings = []
    for token in tail.replace(",", " ").replace("[", " ").replace("]", " ").split():
        crossings.append(int(token))
    if len(crossings) % 2:
        raise ValueError("odd number of crossing endpoints in %r" % text)
    pairs = list(zip(crossings[0::2], crossings[1::2]))
    return StrandDiagram(n, pairs)


def _staircase_like(crossings):
    return all(
        crossings[k].i < crossings[k + 1].i and crossings[k].j < crossings[k + 1].j
        for k in range(len(crossings) - 1)
    )
