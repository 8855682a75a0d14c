"""Truth tables for small Boolean functions.

A truth table over ``n`` variables is stored as a plain Python integer of
``2**n`` bits: bit ``m`` holds the function value on the input assignment
whose binary encoding is ``m`` (variable ``x_i`` corresponds to bit ``i``
of ``m``).  The functions operate on raw integers for speed.

This module is the functional backbone of the reproduction: cut functions,
NPN classification (Sec. II-D of the paper), exact synthesis specs
(Sec. III) and MIG simulation all go through it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "tt_mask",
    "tt_const0",
    "tt_const1",
    "tt_var",
    "tt_not",
    "tt_and",
    "tt_or",
    "tt_xor",
    "tt_maj",
    "tt_ite",
    "tt_cofactor0",
    "tt_cofactor1",
    "tt_depends_on",
    "tt_support",
    "tt_support_size",
    "tt_is_const",
    "tt_count_ones",
    "tt_to_hex",
    "tt_from_hex",
    "tt_extend",
    "tt_shrink_to_support",
    "tt_evaluate",
    "tt_flip_input",
    "tt_permute",
    "tt_swap_adjacent",
]

_MAX_VARS = 16


def tt_mask(num_vars: int) -> int:
    """Return the all-ones truth table (constant 1) over *num_vars* variables."""
    if not 0 <= num_vars <= _MAX_VARS:
        raise ValueError(f"num_vars must be in [0, {_MAX_VARS}], got {num_vars}")
    return (1 << (1 << num_vars)) - 1


def tt_const0(num_vars: int) -> int:
    """Return the constant-0 truth table (always ``0``, checked for range)."""
    tt_mask(num_vars)
    return 0


def tt_const1(num_vars: int) -> int:
    """Return the constant-1 truth table over *num_vars* variables."""
    return tt_mask(num_vars)


# Projection patterns: _VAR_PATTERN[i] restricted to 2**n bits is x_i.
# Pattern for x_i repeats 2**i zeros followed by 2**i ones.
def _var_pattern(i: int, num_bits: int) -> int:
    block = ((1 << (1 << i)) - 1) << (1 << i)
    period = 1 << (i + 1)
    pattern = 0
    for shift in range(0, num_bits, period):
        pattern |= block << shift
    return pattern & ((1 << num_bits) - 1)


_VAR_CACHE: dict[tuple[int, int], int] = {}


def tt_var(num_vars: int, i: int) -> int:
    """Return the truth table of the projection ``x_i`` over *num_vars* variables."""
    if not 0 <= i < num_vars:
        raise ValueError(f"variable index {i} out of range for {num_vars} variables")
    key = (num_vars, i)
    cached = _VAR_CACHE.get(key)
    if cached is None:
        cached = _var_pattern(i, 1 << num_vars)
        _VAR_CACHE[key] = cached
    return cached


def tt_not(f: int, num_vars: int) -> int:
    """Return the complement of *f*."""
    return f ^ tt_mask(num_vars)


def tt_and(f: int, g: int) -> int:
    """Return the conjunction of two truth tables."""
    return f & g


def tt_or(f: int, g: int) -> int:
    """Return the disjunction of two truth tables."""
    return f | g


def tt_xor(f: int, g: int) -> int:
    """Return the exclusive-or of two truth tables."""
    return f ^ g


def tt_maj(f: int, g: int, h: int) -> int:
    """Return the bitwise ternary majority ``<fgh>`` of three truth tables.

    This is the MIG node operation (Sec. II-B, Eq. 1 of the paper).
    """
    return (f & g) | (f & h) | (g & h)


def tt_ite(c: int, t: int, e: int, num_vars: int) -> int:
    """Return if-then-else ``c ? t : e`` as a truth table."""
    return (c & t) | (tt_not(c, num_vars) & e)


def tt_cofactor0(f: int, i: int, num_vars: int) -> int:
    """Return the negative cofactor ``f[x_i := 0]`` (still over *num_vars* vars)."""
    var = tt_var(num_vars, i)
    low = f & ~var & tt_mask(num_vars)
    return low | (low << (1 << i))


def tt_cofactor1(f: int, i: int, num_vars: int) -> int:
    """Return the positive cofactor ``f[x_i := 1]`` (still over *num_vars* vars)."""
    var = tt_var(num_vars, i)
    high = f & var
    return high | (high >> (1 << i))


def tt_depends_on(f: int, i: int, num_vars: int) -> bool:
    """Return True if *f* functionally depends on variable ``x_i``."""
    return tt_cofactor0(f, i, num_vars) != tt_cofactor1(f, i, num_vars)


def tt_support(f: int, num_vars: int) -> tuple[int, ...]:
    """Return the indices of variables *f* depends on, ascending."""
    return tuple(i for i in range(num_vars) if tt_depends_on(f, i, num_vars))


def tt_support_size(f: int, num_vars: int) -> int:
    """Return the number of variables *f* depends on."""
    return len(tt_support(f, num_vars))


def tt_is_const(f: int, num_vars: int) -> bool:
    """Return True if *f* is constant 0 or constant 1."""
    return f == 0 or f == tt_mask(num_vars)


def tt_count_ones(f: int) -> int:
    """Return the number of minterms on which *f* is true."""
    return f.bit_count()


def tt_to_hex(f: int, num_vars: int) -> str:
    """Return *f* as a fixed-width hexadecimal string (MSB first)."""
    digits = max(1, (1 << num_vars) // 4)
    return format(f, f"0{digits}x")


def tt_from_hex(text: str, num_vars: int) -> int:
    """Parse a hexadecimal truth-table string produced by :func:`tt_to_hex`."""
    value = int(text, 16)
    if value > tt_mask(num_vars):
        raise ValueError(f"truth table {text!r} does not fit in {num_vars} variables")
    return value


def tt_extend(f: int, from_vars: int, to_vars: int) -> int:
    """Extend *f* from *from_vars* to *to_vars* variables (new vars are don't-care)."""
    if to_vars < from_vars:
        raise ValueError("tt_extend cannot shrink; use tt_shrink_to_support")
    width = 1 << from_vars
    for extra in range(from_vars, to_vars):
        f = f | (f << (1 << extra))
        width <<= 1
    return f & tt_mask(to_vars)


def tt_shrink_to_support(f: int, num_vars: int) -> tuple[int, tuple[int, ...]]:
    """Project *f* onto its support.

    Returns ``(g, support)`` where ``g`` is a truth table over
    ``len(support)`` variables with
    ``g(y_0, ..., y_{k-1}) == f`` after substituting ``y_j = x_{support[j]}``.
    """
    support = tt_support(f, num_vars)
    g = f
    vars_now = num_vars
    # Remove non-support variables from highest index down so positions of
    # lower variables stay valid.
    for i in range(num_vars - 1, -1, -1):
        if i in support:
            continue
        g = _tt_remove_var(g, i, vars_now)
        vars_now -= 1
    return g, support


def _tt_remove_var(f: int, i: int, num_vars: int) -> int:
    """Drop variable ``x_i`` from *f* (which must not depend on it)."""
    out = 0
    width = 1 << i
    src_bit = 0
    dst_bit = 0
    total = 1 << num_vars
    while src_bit < total:
        chunk = (f >> src_bit) & ((1 << width) - 1)
        out |= chunk << dst_bit
        src_bit += 2 * width
        dst_bit += width
    return out


def tt_evaluate(f: int, assignment: int) -> bool:
    """Evaluate *f* on the input assignment encoded as minterm index."""
    return bool((f >> assignment) & 1)


def tt_flip_input(f: int, i: int, num_vars: int) -> int:
    """Return ``f`` with variable ``x_i`` complemented."""
    var = tt_var(num_vars, i)
    width = 1 << i
    high = f & var
    low = f & ~var & tt_mask(num_vars)
    return (high >> width) | (low << width)


def tt_swap_adjacent(f: int, i: int, num_vars: int) -> int:
    """Return ``f`` with variables ``x_i`` and ``x_{i+1}`` exchanged."""
    if not 0 <= i < num_vars - 1:
        raise ValueError(f"cannot swap variables {i} and {i + 1} in {num_vars} variables")
    step = 1 << i
    # Classic bit-trick: move the two mixed quarters of each 4*step block.
    mask_a = 0
    block = ((1 << step) - 1) << step
    period = 4 * step
    total = 1 << num_vars
    for shift in range(0, total, period):
        mask_a |= block << shift
    mask_b = mask_a << step
    stay = ~(mask_a | mask_b) & tt_mask(num_vars)
    return (f & stay) | ((f & mask_a) << step) | ((f & mask_b) >> step)


def tt_permute(f: int, perm: Iterable[int], num_vars: int) -> int:
    """Apply an input permutation to *f*.

    The result ``g`` satisfies
    ``g(x_0, ..., x_{n-1}) = f(x_{perm[0]}, ..., x_{perm[n-1]})``,
    i.e. input ``j`` of ``f`` is driven by variable ``x_{perm[j]}``.
    """
    perm = list(perm)
    if sorted(perm) != list(range(num_vars)):
        raise ValueError(f"{perm} is not a permutation of 0..{num_vars - 1}")
    g = 0
    for m in range(1 << num_vars):
        mp = 0
        for j in range(num_vars):
            if (m >> perm[j]) & 1:
                mp |= 1 << j
        if (f >> mp) & 1:
            g |= 1 << m
    return g
