"""Eventually periodic letter sequences and their canonical forms.

A PeriodicWord is (prefix, cycle) read as prefix followed by cycle forever.
Canonical form: the cycle has minimal period and the prefix is shortest,
obtained by rotating shared trailing letters out of the prefix.  Two words
are equal iff they denote the same infinite sequence, so equality on the
canonical pair is sequence equality.
"""
from __future__ import annotations

from typing import Iterable

from .groups import A_SIDE, Amalgam, Letter


class CodeError(ValueError):
    """Raised for malformed prefixes, cycles, or code strings."""


def _minimal_period(cycle: tuple[Letter, ...]) -> tuple[Letter, ...]:
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


class PeriodicWord:
    """An eventually periodic sequence of letters, stored canonically."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: Iterable[Letter], cycle: Iterable[Letter]) -> None:
        prefix = list(prefix)
        cycle = tuple(cycle)
        if not cycle:
            raise CodeError("cycle must be nonempty")
        cycle = _minimal_period(cycle)
        while prefix and prefix[-1] == cycle[-1]:
            prefix.pop()
            cycle = (cycle[-1],) + cycle[:-1]
        self.prefix = tuple(prefix)
        self.cycle = cycle

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicWord)
                and self.prefix == other.prefix and self.cycle == other.cycle)

    def __hash__(self) -> int:
        return hash((self.prefix, self.cycle))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.prefix!r}, {self.cycle!r})"

    def letter_at(self, i: int) -> Letter:
        if i < 0:
            raise CodeError("negative position")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def letters(self, n: int) -> tuple[Letter, ...]:
        """The first n letters of the sequence."""
        return tuple(self.letter_at(i) for i in range(n))

    def shift(self, k: int = 1) -> "PeriodicWord":
        """Drop the first k letters."""
        if k < 0:
            raise CodeError("negative shift")
        if k <= len(self.prefix):
            return PeriodicWord(self.prefix[k:], self.cycle)
        r = (k - len(self.prefix)) % len(self.cycle)
        return PeriodicWord((), self.cycle[r:] + self.cycle[:r])

    def horizon(self) -> int:
        """Shifts beyond prefix+cycle revisit earlier shift classes."""
        return len(self.prefix) + len(self.cycle)


def compare_words(u: PeriodicWord, v: PeriodicWord) -> int:
    """Lexicographic order on the underlying sequences; 0 only for equal words."""
    bound = max(len(u.prefix), len(v.prefix)) + len(u.cycle) * len(v.cycle) + 1
    for i in range(bound):
        a, b = u.letter_at(i), v.letter_at(i)
        if a != b:
            return -1 if a < b else 1
    return 0


class BoundaryCode(PeriodicWord):
    """A canonical code for one end of the tree, read from the base vertex.

    Positions alternate sides starting on the H side; only the very first
    letter may be the trivial representative.  Minimal periods of alternating
    sequences are even, so the stored cycle always has even length.
    """

    def __init__(self, prefix: Iterable[Letter], cycle: Iterable[Letter]) -> None:
        cycle = tuple(cycle)
        if len(cycle) % 2 == 1:
            cycle = cycle + cycle
        super().__init__(prefix, cycle)
        self._validate()

    def _validate(self) -> None:
        if len(self.cycle) % 2 == 1:
            raise CodeError("cycle must alternate sides, which forces even length")
        for i in range(len(self.prefix) + len(self.cycle)):
            letter = self.letter_at(i)
            if letter.side != i % 2:
                raise CodeError(
                    f"position {i} must lie on side {i % 2}; letters alternate "
                    "sides starting from the H side, including the cycle wrap")
            if letter.rep == 0 and i > 0:
                raise CodeError(f"trivial letter beyond position 0 (position {i})")
            if letter.rep == 0 and i == 0 and not self.prefix:
                raise CodeError("trivial letter may not recur inside the cycle")

    def shift_code(self, k: int) -> "BoundaryCode":
        """An even shift is again a base-rooted code."""
        if k % 2 == 1:
            raise CodeError("only even shifts are base-rooted")
        w = PeriodicWord.shift(self, k)
        return BoundaryCode(w.prefix, w.cycle)


def format_code(am: Amalgam, x: PeriodicWord) -> str:
    """Render as 'prefix=a,b;cycle=c,d' using transversal letter names."""
    p = ",".join(am.letter_name(letter) for letter in x.prefix)
    c = ",".join(am.letter_name(letter) for letter in x.cycle)
    return f"prefix={p};cycle={c}"


def _parse_letters(am: Amalgam, text: str, start_parity: int,
                   what: str) -> list[Letter]:
    letters = []
    if not text:
        return letters
    for j, name in enumerate(text.split(",")):
        name = name.strip()
        side = (start_parity + j) % 2
        grp = am.side_group(side)
        trans = am.transversal(side)
        rep = None
        for idx, elem in enumerate(trans.reps):
            if grp.name(elem) == name:
                rep = idx
                break
        if rep is None:
            other = "K" if side == A_SIDE else "H"
            raise CodeError(
                f"{what} letter {j}: {name!r} is not a coset representative on "
                f"side {'HK'[side]} (positions alternate H,K,H,...; "
                f"did you mean an {other}-side name?)")
        letters.append(Letter(side, rep))
    return letters


def parse_code(am: Amalgam, text: str) -> BoundaryCode:
    """Parse 'prefix=...;cycle=...' back into a canonical boundary code."""
    parts = text.strip().split(";")
    if len(parts) != 2 or not parts[0].startswith("prefix=") \
            or not parts[1].startswith("cycle="):
        raise CodeError(f"expected 'prefix=...;cycle=...', got {text!r}")
    prefix_text = parts[0][len("prefix="):].strip()
    cycle_text = parts[1][len("cycle="):].strip()
    prefix = _parse_letters(am, prefix_text, 0, "prefix")
    cycle = _parse_letters(am, cycle_text, len(prefix) % 2, "cycle")
    if not cycle:
        raise CodeError("cycle must be nonempty")
    return BoundaryCode(prefix, cycle)
