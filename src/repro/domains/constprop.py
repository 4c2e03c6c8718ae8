"""The constant propagation lattice N⊥⊤ (paper Section 4.2, after [9]).

Elements are ``BOT`` (no value), any integer constant, or ``TOP`` (any
number)::

            TOP
      / ... | | | ... \\
    ... -1  0  1  2 ...
      \\ ... | | | ... /
            BOT

The lattice is infinite in width but has height 3, so ascending chains
stabilize after at most two steps — exactly the property the paper's
termination argument needs.

Constant propagation is the paper's canonical *non-distributive*
analysis: the merge of stores at a join point loses correlations
between variables and between a variable and the branch taken, which
is what Theorem 5.2's witnesses exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.domains.protocol import NumDomain


@dataclass(frozen=True, slots=True)
class _Extreme:
    """A lattice extreme: ``BOT`` or ``TOP``."""

    label: str

    def __repr__(self) -> str:
        return self.label

    def __reduce__(self) -> str:
        # The module global's name: `pickle` and `copy.deepcopy` give
        # back the singleton, which `join`, `binop` and `is_bottom`
        # test by identity.
        return "BOT" if self.label == "⊥" else "TOP"


#: The least element of the constant lattice.
BOT = _Extreme("⊥")

#: The greatest element of the constant lattice.
TOP = _Extreme("⊤")

ConstValue = Union[_Extreme, int]


class ConstPropDomain(NumDomain[ConstValue]):
    """Constant propagation over the flat integer lattice."""

    name = "constprop"
    distributive = False

    @property
    def bottom(self) -> ConstValue:
        return BOT

    @property
    def top(self) -> ConstValue:
        return TOP

    def const(self, n: int) -> ConstValue:
        return n

    def is_bottom(self, a: ConstValue) -> bool:
        # `BOT` is a singleton (`join` already tests it by identity,
        # and `pickle` round-trips to it).
        return a is BOT

    def join(self, a: ConstValue, b: ConstValue) -> ConstValue:
        if a is BOT:
            return b
        if b is BOT:
            return a
        if a == b:
            return a
        return TOP

    def leq(self, a: ConstValue, b: ConstValue) -> bool:
        return a is BOT or b is TOP or a == b

    def add1(self, a: ConstValue) -> ConstValue:
        return self._unary(a, 1)

    def sub1(self, a: ConstValue) -> ConstValue:
        return self._unary(a, -1)

    @staticmethod
    def _unary(a: ConstValue, delta: int) -> ConstValue:
        if isinstance(a, _Extreme):
            return a
        return a + delta

    def binop(self, op: str, a: ConstValue, b: ConstValue) -> ConstValue:
        if a is BOT or b is BOT:
            return BOT
        if op == "*" and (a == 0 or b == 0):
            return 0  # 0 * anything = 0, even for TOP operands
        if a is TOP or b is TOP:
            return TOP
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        raise ValueError(f"unknown operator {op!r}")

    def may_be_zero(self, a: ConstValue) -> bool:
        return a is TOP or a == 0

    def may_be_nonzero(self, a: ConstValue) -> bool:
        return a is TOP or (isinstance(a, int) and a != 0)
