"""Word-level circuit construction helpers over MIGs.

The EPFL arithmetic benchmarks are not redistributable in this offline
environment, so the 8 instances are regenerated structurally
(DESIGN.md §4).  This module provides the word-level building blocks —
adders, subtractors, comparators, shifters, multiplexers — from which
:mod:`repro.generators.epfl` assembles the actual benchmark circuits.

Words are little-endian lists of MIG signals (``word[0]`` is the LSB).
"""

from __future__ import annotations

from ..core.mig import CONST0, CONST1, Mig, signal_not

__all__ = ["WordBuilder"]


class WordBuilder:
    """Constructs word-level datapath logic on an underlying MIG."""

    def __init__(self, mig: Mig) -> None:
        self.mig = mig

    # -- inputs / constants ----------------------------------------------

    def input_word(self, width: int, prefix: str) -> list[int]:
        """Create *width* primary inputs named ``prefix[i]``."""
        return [self.mig.add_pi(f"{prefix}[{i}]") for i in range(width)]

    def constant_word(self, value: int, width: int) -> list[int]:
        """Encode an integer constant as a signal word."""
        return [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)]

    # -- bit-level --------------------------------------------------------

    def full_adder(self, a: int, b: int, c: int) -> tuple[int, int]:
        """Full adder in three majority gates (Fig. 1 of the paper)."""
        carry = self.mig.maj(a, b, c)
        inner = self.mig.maj(a, b, signal_not(c))
        total = self.mig.maj(signal_not(carry), inner, c)
        return total, carry

    # -- addition / subtraction -------------------------------------------

    def add(self, a: list[int], b: list[int], carry_in: int = CONST0) -> tuple[list[int], int]:
        """Ripple-carry addition; returns (sum word, carry out)."""
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
        carry = carry_in
        out = []
        for bit_a, bit_b in zip(a, b):
            s, carry = self.full_adder(bit_a, bit_b, carry)
            out.append(s)
        return out, carry

    def sub(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """Two's-complement subtraction ``a - b``; returns (difference, no_borrow).

        ``no_borrow`` is the adder's carry-out, i.e. ``a >= b`` for
        unsigned operands.
        """
        b_inverted = [signal_not(s) for s in b]
        diff, carry = self.add(a, b_inverted, CONST1)
        return diff, carry

    def add_sub(self, a: list[int], b: list[int], subtract: int) -> tuple[list[int], int]:
        """Conditional add/subtract: ``a + b`` or ``a - b`` when *subtract*."""
        b_cond = [self.mig.xor(s, subtract) for s in b]
        return self.add(a, b_cond, subtract)

    # -- comparison ---------------------------------------------------------

    def geq(self, a: list[int], b: list[int]) -> int:
        """Unsigned ``a >= b`` via the borrow chain ``<a' b borrow>``."""
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
        borrow = CONST0
        for bit_a, bit_b in zip(a, b):
            borrow = self.mig.maj(signal_not(bit_a), bit_b, borrow)
        return signal_not(borrow)

    def equal(self, a: list[int], b: list[int]) -> int:
        """Bitwise equality of two words."""
        acc = CONST1
        for bit_a, bit_b in zip(a, b):
            acc = self.mig.and_(acc, self.mig.xnor(bit_a, bit_b))
        return acc

    # -- selection ------------------------------------------------------------

    def mux_word(self, sel: int, when_true: list[int], when_false: list[int]) -> list[int]:
        """Word-level 2:1 multiplexer."""
        if len(when_true) != len(when_false):
            raise ValueError("mux operand widths differ")
        return [self.mig.ite(sel, t, e) for t, e in zip(when_true, when_false)]

    def max_word(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """Unsigned maximum; returns (max(a, b), a_wins)."""
        a_wins = self.geq(a, b)
        return self.mux_word(a_wins, a, b), a_wins

    # -- bitwise -----------------------------------------------------------------

    def and_word(self, a: list[int], b: list[int]) -> list[int]:
        """Bitwise AND."""
        return [self.mig.and_(x, y) for x, y in zip(a, b)]

    def scalar_and(self, word: list[int], bit: int) -> list[int]:
        """AND every bit of *word* with *bit*."""
        return [self.mig.and_(x, bit) for x in word]

    def shift_left_const(self, word: list[int], amount: int) -> list[int]:
        """Logical left shift by a constant, width preserved."""
        return self.constant_word(0, amount) + word[: len(word) - amount]

    def shift_right_const(self, word: list[int], amount: int) -> list[int]:
        """Logical right shift by a constant, width preserved."""
        return word[amount:] + self.constant_word(0, amount)

    # -- multiplication ---------------------------------------------------------

    def multiply(self, a: list[int], b: list[int]) -> list[int]:
        """Array multiplier; result has ``len(a) + len(b)`` bits."""
        wa, wb = len(a), len(b)
        acc = self.constant_word(0, wa + wb)
        for j, bit_b in enumerate(b):
            partial = self.scalar_and(a, bit_b)
            padded = self.constant_word(0, j) + partial + self.constant_word(
                0, wa + wb - wa - j
            )
            acc, _ = self.add(acc, padded)
        return acc

    def square(self, a: list[int]) -> list[int]:
        """Squarer: ``a * a`` with ``2 * len(a)`` output bits."""
        return self.multiply(a, a)

    # -- division / roots -----------------------------------------------------------

    def divide(self, dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
        """Restoring division; returns (quotient, remainder).

        Division by zero yields quotient all-ones and remainder equal to
        the dividend, as in typical hardware dividers.
        """
        width = len(dividend)
        if len(divisor) != width:
            raise ValueError("divide expects equal widths")
        remainder = self.constant_word(0, width)
        quotient: list[int] = [CONST0] * width
        for i in range(width - 1, -1, -1):
            remainder = [dividend[i]] + remainder[:-1]
            diff, no_borrow = self.sub(remainder, divisor)
            quotient[i] = no_borrow
            remainder = self.mux_word(no_borrow, diff, remainder)
        return quotient, remainder

    def isqrt(self, value: list[int]) -> list[int]:
        """Integer square root (restoring digit recurrence).

        *value* must have even width ``2w``; the result has ``w`` bits.
        """
        width = len(value)
        if width % 2:
            raise ValueError("isqrt expects an even input width")
        half = width // 2
        root = self.constant_word(0, half)
        remainder = self.constant_word(0, width)
        for i in range(half - 1, -1, -1):
            # Bring down two bits of the radicand: rem = (rem << 2) | pair.
            remainder = value[2 * i : 2 * i + 2] + remainder[:-2]
            # Trial subtrahend at the current scale: trial = 4 * root + 1.
            trial = self.constant_word(0, width)
            for j, bit in enumerate(root):
                if j + 2 < width:
                    trial[j + 2] = bit
            trial[0] = CONST1
            diff, no_borrow = self.sub(remainder, trial)
            remainder = self.mux_word(no_borrow, diff, remainder)
            root = self.shift_left_const(root, 1)
            root[0] = no_borrow
        return root
