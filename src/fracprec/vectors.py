"""Vectors tagged by space, level and representation.

Degrees of freedom live in one of three spaces per mesh level: "S"
(piecewise constants, one value per triangle), "V" (normal fluxes, one value
per edge) and "C" (vertex values).  A vector is either a ``coefficient``
vector (expansion in the nodal basis) or a ``dual`` vector (the functional
values of the underlying object against the nodal basis).  The only product
ever taken is the duality pairing of a coefficient vector with a dual vector
of the same space and level; mass matrices convert between the two
representations.  Mixing tags is a programming error and raises
:class:`TagError` rather than producing silently wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SPACES", "REPS", "TagError", "TaggedVector", "pair", "untag", "retag"]

SPACES = ("S", "V", "C")
REPS = ("coefficient", "dual")


class TagError(ValueError):
    """A vector was used with the wrong space, level or representation."""


@dataclass(frozen=True)
class TaggedVector:
    space: str
    level: int
    rep: str
    values: np.ndarray

    def __post_init__(self):
        if self.space not in SPACES:
            raise TagError(f"unknown space {self.space!r}, expected one of {SPACES}")
        if self.rep not in REPS:
            raise TagError(f"unknown representation {self.rep!r}, expected one of {REPS}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise TagError(f"tagged vectors are 1-d, got shape {self.values.shape}")

    def require(self, space=None, level=None, rep=None) -> "TaggedVector":
        if space is not None and self.space != space:
            raise TagError(f"expected space {space!r}, got {self.space!r}")
        if level is not None and self.level != level:
            raise TagError(f"expected level {level}, got {self.level}")
        if rep is not None and self.rep != rep:
            raise TagError(f"expected {rep} vector, got {self.rep}")
        return self

    def with_values(self, values) -> "TaggedVector":
        return TaggedVector(self.space, self.level, self.rep, values)

    def _check_match(self, other):
        if not isinstance(other, TaggedVector):
            raise TagError(f"cannot combine TaggedVector with {type(other).__name__}")
        if (self.space, self.level, self.rep) != (other.space, other.level, other.rep):
            raise TagError(
                f"tag mismatch: ({self.space},{self.level},{self.rep}) vs "
                f"({other.space},{other.level},{other.rep})"
            )

    def __add__(self, other):
        self._check_match(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        self._check_match(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, alpha):
        return self.with_values(self.values * float(alpha))

    __rmul__ = __mul__


def pair(a: TaggedVector, b: TaggedVector) -> float:
    """Duality pairing; exactly one argument must be a coefficient vector."""
    if (a.space, a.level) != (b.space, b.level):
        raise TagError(
            f"pairing across spaces/levels: ({a.space},{a.level}) vs ({b.space},{b.level})"
        )
    if {a.rep, b.rep} != {"coefficient", "dual"}:
        raise TagError(f"pairing needs one coefficient and one dual vector, got {a.rep}/{b.rep}")
    return float(a.values @ b.values)


def untag(x, space, level, rep) -> np.ndarray:
    """Values of ``x``: a :class:`TaggedVector` must carry the given tags (a
    ``None`` tag is not checked); anything else is read as a float array."""
    if isinstance(x, TaggedVector):
        return x.require(space=space, level=level, rep=rep).values
    return np.asarray(x, dtype=float)


def retag(like, rep: str, values: np.ndarray):
    """``values`` tagged with the space and level of ``like`` and the given
    representation, or left plain when ``like`` is plain."""
    if isinstance(like, TaggedVector):
        return TaggedVector(like.space, like.level, rep, values)
    return values
