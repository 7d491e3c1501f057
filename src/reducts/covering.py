"""Covering approximation spaces over an attribute ground set.

A covering space pairs a finite ground set with a family of non-empty
subsets whose union is the whole ground.  Instantiated with a
discernibility family as the cover, singleton membership of an attribute
in the cover lines up with it being part of every reduct, which is what
makes these operators useful here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discern import SetFamily, absorb, containing_sets
from .errors import InputError
from .model import AttrSet

__all__ = [
    "CoveringSpace",
    "SingletonChecks",
    "covering_from_family",
    "minimal_description",
    "cov_lower",
    "singleton_equivalences",
]


@dataclass(frozen=True, eq=False)
class CoveringSpace:
    """A ground set together with a family of subsets that covers it."""

    ground: AttrSet
    cover: SetFamily

    def __post_init__(self) -> None:
        spanned = self.cover.universe()
        if not spanned <= self.ground:
            stray = sorted(spanned - self.ground)
            raise InputError(f"cover members leave the ground set: {stray}")
        if spanned != self.ground:
            missing = sorted(self.ground - spanned)
            raise InputError(f"ground elements not covered: {missing}")


@dataclass(frozen=True)
class SingletonChecks:
    """Four equivalent ways of saying an element forms its own cover member,
    with the element's minimal description, which two of them read."""

    minimal_description: SetFamily
    in_cover: bool
    minimal_is_singleton: bool
    lower_is_self: bool
    minimal_is_lower: bool

    @property
    def all_true(self) -> bool:
        return self.as_tuple() == (True, True, True, True)

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.in_cover,
            self.minimal_is_singleton,
            self.lower_is_self,
            self.minimal_is_lower,
        )


def covering_from_family(family: SetFamily) -> CoveringSpace:
    """Wrap a set family as a covering space of its own universe."""
    return CoveringSpace(family.universe(), family)


def _containing(space: CoveringSpace, x: int) -> SetFamily:
    if x not in space.ground:
        raise InputError(f"element {x} is outside the ground set")
    return containing_sets(space.cover, x)


def minimal_description(space: CoveringSpace, x: int) -> SetFamily:
    """The inclusion-minimal cover members containing ``x``, in cover order."""
    return absorb(_containing(space, x)).minimal


def cov_lower(space: CoveringSpace, x: AttrSet) -> AttrSet:
    """Union of the cover members lying inside ``x``."""
    return frozenset().union(*(k for k in space.cover if k <= x))


def singleton_equivalences(space: CoveringSpace, x: int) -> SingletonChecks:
    """Evaluate the four singleton conditions for ``x`` independently.

    They are provably all-equal on any covering space; computing each one
    from its own definition keeps that a checkable fact rather than an
    assumption.
    """
    md = minimal_description(space, x)
    lower = cov_lower(space, frozenset({x}))
    return SingletonChecks(
        minimal_description=md,
        in_cover=frozenset({x}) in space.cover,
        minimal_is_singleton=md == SetFamily((frozenset({x}),)),
        lower_is_self=lower == frozenset({x}),
        minimal_is_lower=bool(lower) and md == SetFamily((lower,)),
    )
