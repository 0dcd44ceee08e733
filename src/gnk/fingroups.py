"""Concrete finite groups with a uniform element protocol.

Every group exposes ``identity``, ``mul``, ``inv``, ``power``, a canonical
``elements()`` enumeration, and text formatting for its elements.  Elements
are plain hashable values (tuples, ints, pairs), so callers can put them in
dicts and compare across calls.

Permutations compose left to right: ``mul(x, y)`` applies x first.  Full
enumeration is refused above MAX_ENUMERABLE_ORDER; arithmetic on individual
elements works at any order, which is what lets us check a witness inside
S_24 without ever listing it.  The twisted Alexander module refuses a cell
whose Wada coefficient array would pass MAX_WADA_BYTES.  Both refusals
raise CapabilityError, which a sweep records as a skip.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

MAX_ENUMERABLE_ORDER = 2500

# Bytes of one talex cell's Wada array: relators x generators x degree span
# x batch members x k^2 x 8.  A cell's time grows with this size and
# faster than it, as the echelon's entries lengthen with the span.  On 2
# vCPUs, cells just under the bound took 0.3-1.1 s (SK into SL2_5 at
# n = 400: 8.0 MB, 1.1 s; SK into SL2_13 at n = 45: 7.2 MB, 0.85 s), and
# past it SK into SL2_3 took 1.7 s at n = 800 (10.4 MB) and 5.5 s at
# n = 1600 (20.7 MB).
MAX_WADA_BYTES = 2**23


class CapabilityError(RuntimeError):
    """The operation would need more than we allow: a group enumerated past
    MAX_ENUMERABLE_ORDER, or a Wada array past MAX_WADA_BYTES."""


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first 13 primes: exact below 3.3 * 10^24 (Sorenson
    and Webster, Math. Comp. 86, 2017); past that it proves only composites."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 43:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (p - 1) >> s, p)
        squares = itertools.accumulate(range(s - 1), lambda y, _: y * y % p, initial=x)
        if x != 1 and p - 1 not in squares:
            return False
    if p >= (limit := 3317044064679887385961981):
        raise ValueError(f"cannot certify {p} prime: past the test's limit {limit}")
    return True


class FiniteGroup:
    """Base protocol; subclasses fill in the arithmetic and enumeration."""

    def __init__(self, name: str, order: int | None, identity) -> None:
        self.name = name
        if order is not None:  # None: the subclass works it out when read
            self.order = order
        if identity is not None:  # likewise
            self.identity = identity
        self._elements: tuple | None = None
        self._index: dict | None = None

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def _enumerate(self) -> Iterator:
        raise NotImplementedError

    def _order_exceeds(self, bound: int) -> bool:
        return self.order > bound

    def elements(self) -> tuple:
        if self._elements is None:
            if self._order_exceeds(MAX_ENUMERABLE_ORDER):
                raise CapabilityError(
                    f"{self.name} has order above the enumeration bound "
                    f"{MAX_ENUMERABLE_ORDER}"
                )
            els = tuple(self._enumerate())
            if len(els) != self.order:
                raise RuntimeError(
                    f"{self.name}: enumerated {len(els)} of {self.order}"
                )
            self._elements = els
            self._index = {e: i for i, e in enumerate(els)}
        return self._elements

    def index_of(self, x) -> int:
        self.elements()
        assert self._index is not None
        return self._index[x]

    def power(self, x, k: int):
        if k < 0:
            x = self.inv(x)
            k = -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            k >>= 1
        return acc

    def format_element(self, x) -> str:
        return str(x)

    def parse_element(self, text: str):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


# -- permutation groups ------------------------------------------------------


def permutation_parity(perm: tuple[int, ...]) -> int:
    """0 for even, 1 for odd."""
    seen = [False] * len(perm)
    parity = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


class SymmetricGroup(FiniteGroup):
    _LETTER, _INDEX = "S", 1  # the name's letter and the index in S_k

    def __init__(self, degree: int) -> None:
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        super().__init__(f"{self._LETTER}{degree}", None, None)

    @cached_property
    def order(self) -> int:  # worked out when read: k! at k = 10^6 takes seconds
        return max(1, math.factorial(self.degree) // self._INDEX)

    @cached_property
    def identity(self) -> tuple[int, ...]:  # a refused S_k never builds it
        return tuple(range(self.degree))

    def _order_exceeds(self, bound: int) -> bool:
        # lgamma(k + 1) = log k!; the margin 1 > log 2 covers A_k and rounding
        return math.lgamma(self.degree + 1) > math.log(bound) + 1 or self.order > bound

    def mul(self, x, y):
        return tuple(y[i] for i in x)

    def inv(self, x):
        out = [0] * self.degree
        for i, xi in enumerate(x):
            out[xi] = i
        return tuple(out)

    def _enumerate(self):
        return itertools.permutations(range(self.degree))

    def format_element(self, x) -> str:
        return format_cycles(x)

    def parse_element(self, text: str):
        return parse_cycles(text, self.degree)


class AlternatingGroup(SymmetricGroup):
    _LETTER, _INDEX = "A", 2

    def _enumerate(self):
        return (
            p
            for p in itertools.permutations(range(self.degree))
            if permutation_parity(p) == 0
        )

    def parse_element(self, text: str):
        perm = parse_cycles(text, self.degree)
        if permutation_parity(perm):
            raise ValueError(f"{text!r} is an odd permutation")
        return perm


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """1-based disjoint cycle notation to a 0-based image tuple."""
    t = text.strip()
    if t in ("()", "e", "1"):
        return tuple(range(degree))
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"bad cycle text {text!r}")
    perm = list(range(degree))
    seen: set[int] = set()
    for cyc in re.split(r"\)\s*\(", t[1:-1]):
        entries = [int(tok) for tok in re.split(r"[,\s]+", cyc.strip()) if tok]
        for v in entries:
            if not 1 <= v <= degree:
                raise ValueError(f"entry {v} outside 1..{degree}")
            if v - 1 in seen:
                raise ValueError(f"entry {v} repeated")
            seen.add(v - 1)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def format_cycles(perm: tuple[int, ...]) -> str:
    """Canonical cycle text: each cycle least-first, cycles by least entry."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) or "()"


# -- abelian and dihedral ----------------------------------------------------


class CyclicGroup(FiniteGroup):
    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        super().__init__(f"Z{modulus}", modulus, 0)

    def mul(self, x, y):
        return (x + y) % self.modulus

    def inv(self, x):
        return (-x) % self.modulus

    def _enumerate(self):
        return iter(range(self.modulus))

    def parse_element(self, text: str):
        v = int(text)
        if not 0 <= v < self.modulus:
            raise ValueError(f"{v} outside 0..{self.modulus - 1}")
        return v


class DihedralGroup(FiniteGroup):
    """Symmetries (i, j) = r^i f^j of the m-gon, with f r f = r^-1."""

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError("need m >= 1")
        self.m = m
        super().__init__(f"D{m}", 2 * m, (0, 0))

    def mul(self, x, y):
        i1, j1 = x
        i2, j2 = y
        return ((i1 + (i2 if j1 == 0 else -i2)) % self.m, (j1 + j2) % 2)

    def inv(self, x):
        i, j = x
        return ((-i) % self.m, 0) if j == 0 else x

    def _enumerate(self):
        return ((i, j) for j in (0, 1) for i in range(self.m))

    def format_element(self, x) -> str:
        i, j = x
        if j == 0:
            return "e" if i == 0 else f"r{i}"
        return "f" if i == 0 else f"r{i}f"

    def parse_element(self, text: str):
        m = re.fullmatch(r"(?:e|(?:r(\d+))?(f)?)", text.strip())
        if not m or text.strip() == "":
            raise ValueError(f"bad dihedral element {text!r}")
        i = int(m.group(1)) if m.group(1) else 0
        j = 1 if m.group(2) else 0
        if not 0 <= i < self.m:
            raise ValueError(f"rotation {i} outside 0..{self.m - 1}")
        return (i, j)


# -- matrix groups over prime fields ------------------------------------------


class SL2Group(FiniteGroup):
    """2x2 determinant-1 matrices over F_p, stored as (a, b, c, d)."""

    def __init__(self, p: int, name: str | None = None) -> None:
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        super().__init__(name or f"SL2_{p}", p**3 - p, (1 % p, 0, 0, 1 % p))

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        p = self.p
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )

    def inv(self, x):
        a, b, c, d = x
        p = self.p
        return (d % p, (-b) % p, (-c) % p, a % p)

    def _enumerate(self):
        p = self.p
        for m in itertools.product(range(p), repeat=4):
            if (m[0] * m[3] - m[1] * m[2]) % p == 1:
                yield m

    def format_element(self, x) -> str:
        a, b, c, d = x
        return f"[[{a},{b}],[{c},{d}]]"

    def parse_element(self, text: str):
        import ast

        try:
            rows = ast.literal_eval(text.strip())
        except (SyntaxError, TypeError, ValueError):
            raise ValueError(f"bad matrix {text!r}") from None
        if (
            not isinstance(rows, (list, tuple))
            or len(rows) != 2
            or any(not isinstance(r, (list, tuple)) or len(r) != 2 for r in rows)
            or any(type(v) is not int for r in rows for v in r)
        ):
            raise ValueError(f"bad matrix {text!r}")
        m = tuple(v % self.p for row in rows for v in row)
        if (m[0] * m[3] - m[1] * m[2]) % self.p != 1:
            raise ValueError(f"{text!r} has determinant != 1")
        return self._accept(m)

    def _accept(self, m):
        return m


class PSL2Group(SL2Group):
    """SL2 mod its center; representatives are sign-normalized."""

    def __init__(self, p: int) -> None:
        super().__init__(p, name=f"PSL2_{p}")
        if p > 2:
            self.order //= 2

    def _normalize(self, m):
        half = (self.p - 1) // 2
        for v in m:
            if v:
                if 1 <= v <= half:
                    return m
                return tuple((-x) % self.p for x in m)
        raise ValueError("zero matrix")

    def mul(self, x, y):
        return self._normalize(super().mul(x, y))

    def inv(self, x):
        return self._normalize(super().inv(x))

    def _enumerate(self):
        return (m for m in super()._enumerate() if m == self._normalize(m))

    def _accept(self, m):
        return self._normalize(m)


# -- opaque multiplication tables ---------------------------------------------


class CayleyGroup(FiniteGroup):
    """A group given by its full multiplication table; elements are 0..N-1."""

    def __init__(self, table: tuple[tuple[int, ...], ...], name: str) -> None:
        n = len(table)
        ident = None
        for i in range(n):
            if table[i] == tuple(range(n)) and all(
                table[j][i] == j for j in range(n)
            ):
                ident = i
                break
        if ident is None:
            raise ValueError("table has no identity")
        self.table = table
        self._inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == ident and table[j][i] == ident:
                    self._inv[i] = j
                    break
            if self._inv[i] is None:
                raise ValueError(f"element {i} has no inverse")
        super().__init__(name, n, ident)

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inv[x]

    def _enumerate(self):
        return iter(range(self.order))

    def parse_element(self, text: str):
        v = int(text)
        if not 0 <= v < self.order:
            raise ValueError(f"{v} outside 0..{self.order - 1}")
        return v


def from_cayley_table(rows, name: str = "cayley") -> CayleyGroup:
    """Build and validate a group from a multiplication table.

    Latin-square and inverse checks are exhaustive; associativity is checked
    exhaustively up to order 64 and on seeded random triples beyond that.
    """
    table = tuple(tuple(int(v) for v in row) for row in rows)
    n = len(table)
    want = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n or set(row) != want:
            raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {table[i][j] for i in range(n)} != want:
            raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
    if n <= 64:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(5000)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise ValueError(f"not associative at ({a}, {b}, {c})")
    return CayleyGroup(table, name)


def parse_cayley_table(text: str, name: str = "cayley") -> CayleyGroup:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty table text")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    return from_cayley_table(
        [[int(v) for v in ln.split()] for ln in lines[1:]], name=name
    )


# -- direct products -----------------------------------------------------------


class DirectProductGroup(FiniteGroup):
    def __init__(self, left: FiniteGroup, right: FiniteGroup) -> None:
        self.left = left
        self.right = right
        super().__init__(f"{left.name}x{right.name}", None, None)

    @cached_property
    def order(self) -> int:
        return self.left.order * self.right.order

    @cached_property
    def identity(self) -> tuple:
        return (self.left.identity, self.right.identity)

    def _order_exceeds(self, bound: int) -> bool:
        if self.left._order_exceeds(bound) or self.right._order_exceeds(bound):
            return True
        return self.order > bound

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def inv(self, x):
        return (self.left.inv(x[0]), self.right.inv(x[1]))

    def _enumerate(self):
        return itertools.product(self.left.elements(), self.right.elements())

    def format_element(self, x) -> str:
        return (
            f"({self.left.format_element(x[0])}; "
            f"{self.right.format_element(x[1])})"
        )

    def parse_element(self, text: str):
        t = text.strip()
        parts = split_outside_brackets(t[1:-1])
        if not (t.startswith("(") and t.endswith(")")) or len(parts) != 2:
            raise ValueError(f"bad product element {text!r}")
        return self.left.parse_element(parts[0]), self.right.parse_element(parts[1])


def split_outside_brackets(text: str) -> list[str]:
    """text split at each semicolon that no round or square bracket holds."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == ";" and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return pieces


# -- group-level utilities ------------------------------------------------------


def nth_roots(group: FiniteGroup, target, n: int) -> tuple:
    """All x with x^n = target, in enumeration order."""
    return tuple(
        x for x in group.elements() if group.power(x, n) == target
    )


# -- spec strings ---------------------------------------------------------------

_SPEC_MAKERS = (
    (re.compile(r"S(\d+)"), lambda m: SymmetricGroup(int(m.group(1)))),
    (re.compile(r"A(\d+)"), lambda m: AlternatingGroup(int(m.group(1)))),
    (re.compile(r"Z(\d+)"), lambda m: CyclicGroup(int(m.group(1)))),
    (re.compile(r"D(\d+)"), lambda m: DihedralGroup(int(m.group(1)))),
    (re.compile(r"SL2_(\d+)"), lambda m: SL2Group(int(m.group(1)))),
    (re.compile(r"PSL2_(\d+)"), lambda m: PSL2Group(int(m.group(1)))),
)


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse names like S5, A4, Z6, D4, SL2_3, PSL2_7, Z2xZ4, cayley:path.

    A cayley: factor takes the rest of the spec, so it comes last.  One
    shared group per spec (and, for cayley:, per file content), so the
    tables cached per group (index tables, class data, n = 1 bases, matrix
    tables), which key on the group itself, are built once a process.
    """
    s = spec.strip()
    head, cayley, path = s.partition("cayley:")
    parts = head.split("x")
    parts[-1] += cayley + path
    if len(parts) > 1:
        group = None
        for part in parts:
            try:
                factor = group_from_spec(part)
            except ValueError as exc:
                raise ValueError(f"bad factor {part!r} in group spec {s!r}: {exc}")
            group = factor if group is None else _product(group, factor)
        return group
    if s.startswith("cayley:"):
        with open(path) as fh:
            return _cayley_group(fh.read(), s)
    return _named_group(s)


@lru_cache(maxsize=None)
def _cayley_group(text: str, name: str) -> CayleyGroup:
    return parse_cayley_table(text, name=name)


@lru_cache(maxsize=None)
def _product(left: FiniteGroup, right: FiniteGroup) -> DirectProductGroup:
    return DirectProductGroup(left, right)


@lru_cache(maxsize=None)
def _named_group(s: str) -> FiniteGroup:
    for pat, make in _SPEC_MAKERS:
        m = pat.fullmatch(s)
        if m:
            return make(m)
    raise ValueError(f"unrecognized group spec {s!r}")


# -- a concrete degree-24 certificate -------------------------------------------

WITNESS_TWIST = 2
WITNESS_DEGREE = 24
WITNESS_CYCLES = {
    "B": "(1,8,10,5,2,7,9,6)(15,17,24,19,16,18,23,20)",
    "D": "(3,5,12,7,4,6,11,8)(15,17,24,19,16,18,23,20)",
    "E": "(3,5,12,7,4,6,11,8)(13,20,22,17,14,19,21,18)",
    "d_hat": "(3,15,5,17,12,24,7,19,4,16,6,18,11,23,8,20)",
}


@dataclass(frozen=True)
class WitnessReport:
    """Checks on the stored degree-24 certificate.

    The powered relation is evaluated under both composition conventions;
    the braid relations and the root condition read the same either way.
    The certificate stands if the base data is coherent and the powered
    relation fails under at least one reading.
    """

    root_ok: bool
    braid_bd_ok: bool
    braid_ed_ok: bool
    powered_holds: bool
    powered_holds_mirror: bool

    @property
    def confirmed(self) -> bool:
        return (
            self.root_ok
            and self.braid_bd_ok
            and self.braid_ed_ok
            and not (self.powered_holds and self.powered_holds_mirror)
        )


def _chain(mul, *xs):
    """The left-to-right product of xs under mul."""
    acc = xs[0]
    for x in xs[1:]:
        acc = mul(acc, x)
    return acc


def s24_witness_report() -> WitnessReport:
    group = SymmetricGroup(WITNESS_DEGREE)
    B = group.parse_element(WITNESS_CYCLES["B"])
    D = group.parse_element(WITNESS_CYCLES["D"])
    E = group.parse_element(WITNESS_CYCLES["E"])
    d_hat = group.parse_element(WITNESS_CYCLES["d_hat"])

    root_ok = group.power(d_hat, WITNESS_TWIST) == D

    def braid(x, y) -> bool:
        return _chain(group.mul, x, y, x) == _chain(group.mul, y, x, y)

    def powered_holds_under(mul) -> bool:
        def cube(x):
            return _chain(mul, x, x, x)

        ed = mul(E, D)
        bd = mul(B, D)
        lhs = _chain(mul, cube(ed), d_hat, group.inv(cube(ed)))
        rhs = _chain(mul, cube(bd), d_hat, group.inv(cube(bd)))
        return lhs == rhs

    return WitnessReport(
        root_ok=root_ok,
        braid_bd_ok=braid(B, D),
        braid_ed_ok=braid(E, D),
        powered_holds=powered_holds_under(group.mul),
        powered_holds_mirror=powered_holds_under(lambda a, b: group.mul(b, a)),
    )
