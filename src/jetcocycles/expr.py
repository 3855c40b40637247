"""Exact differential-polynomial kernel.

Expressions are finite Q-linear combinations of monomials in jet
symbols.  A jet symbol is a pair (family, order): the families are

    f, g, k   -- vector-field coefficient functions,
    T         -- affine connection symbol,
    R         -- projective connection symbol,
    w         -- coefficient of a background 1-form,
    h         -- transition jets (order >= 1, h[1] is h'),
    hinv      -- the reciprocal of h[1] (order 0 only).

hinv is the single allowed "inverse": the unit relation hinv*h[1] = 1 is
applied during monomial assembly, and d/dz maps hinv to -h[2]*hinv^2, so no
localization machinery is needed.

Everything is canonical by construction: monomials are sorted tuples of
(atom, exponent) with positive exponents, keyed by (family rank, order), and
terms are keyed by monomial with nonzero coefficients.  A product merges
two sorted tuples and a derivative shifts one (_derivative_into), so the
form is kept without re-sorting; the hinv*h[1] rule lives in one helper,
``_unit_rule``.  The private ``_expr`` trusts that form; ``DiffExpr(...)``
normalizes coefficients and drops zeros.

A coefficient is an exact rational in the ``_rat`` form, and nothing
else: the module parameter lam is not a coefficient (a cochain's
differential is linear in it; see cochains.ce_parts).  The kernel's one
accumulator, ``_mul_into``, adds the product of two term dicts into a third
in place; its one derivative loop, ``_derivative_into``, adds +-D of a term
dict into another.  ``terms()`` is the one public reader: each monomial
with its coefficient, in monomial order.  Expressions are immutable; every
function is pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .lampoly import Rat, _rat

FAMILIES = ("f", "g", "k", "T", "R", "w", "h", "hinv")
_RANK = {name: i for i, name in enumerate(FAMILIES)}

# default bound on the jet orders of an input (check_order_cap)
DEFAULT_ORDER_CAP = 12

# atom: (rank, order); monomial: tuple of (atom, exponent) sorted by atom
Atom = Tuple[int, int]
Monomial = Tuple[Tuple[Atom, int], ...]

_H = _RANK["h"]
_HINV = _RANK["hinv"]
_H1: Atom = (_H, 1)
_HINV0: Atom = (_HINV, 0)


class OrderCapExceeded(ValueError):
    """An input carries a jet order above its bound (see check_order_cap)."""


def _check_atom(family: str, order: int) -> Atom:
    if family not in _RANK:
        raise ValueError(f"unknown jet family {family!r}")
    if type(order) is not int or order < 0:
        raise ValueError(f"jet order must be a non-negative integer, got {order!r}")
    if family == "h" and order < 1:
        raise ValueError("h jets start at order 1 (h[1] is h')")
    if family == "hinv" and order != 0:
        raise ValueError("hinv carries no independent jets")
    return (_RANK[family], order)


def atom_name(atom: Atom) -> str:
    rank, order = atom
    return FAMILIES[rank] if rank == _HINV else f"{FAMILIES[rank]}[{order}]"


def _unit_rule(items: List[Tuple[Atom, int]]) -> Monomial:
    """Apply hinv*h[1] -> 1 to sorted (atom, exp) pairs with positive exponents.

    hinv ranks last, and h[1] is the lowest h atom, so both checks look only
    at the tail of the list.
    """
    if items and items[-1][0] == _HINV0:
        j = len(items) - 2
        while j >= 0 and items[j][0][0] == _H:
            j -= 1
        j += 1
        if j < len(items) - 1 and items[j][0] == _H1:
            a, b = items[-1][1], items[j][1]
            m = min(a, b)
            if a > m:
                items[-1] = (_HINV0, a - m)
            else:
                del items[-1]
            if b > m:
                items[j] = (_H1, b - m)
            else:
                del items[j]
    return tuple(items)


def _mono_from_pairs(pairs: Iterable[Tuple[Atom, int]]) -> Monomial:
    """Assemble a monomial from (atom, exp) pairs in any order."""
    acc: Dict[Atom, int] = {}
    for atom, exp in pairs:
        if exp == 0:
            continue
        if exp < 0:
            raise ValueError("negative exponents are not representable; use hinv")
        acc[atom] = acc.get(atom, 0) + exp
    return _unit_rule(sorted(acc.items()))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials: merge the sorted tuples."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p, q = m1[i], m2[j]
        if p[0] < q[0]:
            out.append(p)
            i += 1
        elif q[0] < p[0]:
            out.append(q)
            j += 1
        else:
            out.append((p[0], p[1] + q[1]))
            i += 1
            j += 1
    out += m1[i:] or m2[j:]
    return _unit_rule(out)


def _mul_into(out: Dict[Monomial, Rat], a: Mapping[Monomial, Rat],
              b: Mapping[Monomial, Rat]) -> None:
    """Add the product of two term dicts into out, in place: the kernel's
    one accumulator.  Every coefficient of a and b is nonzero and stored."""
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2) if m1 else m2
            c = c1 * c2
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if type(s) is not int:
                s = _rat(s)
            if s:
                out[mono] = s
            else:
                del out[mono]


class DiffExpr:
    """Canonical differential polynomial with rational coefficients (any
    other coefficient, a LamPoly or a float, is a TypeError).  Immutable."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Rat]] = None):
        clean: Dict[Monomial, Rat] = {}
        if terms:
            for mono, coef in terms.items():
                coef = _rat(coef)
                if coef:
                    clean[mono] = coef
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiffExpr is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "DiffExpr":
        return _ZERO

    @staticmethod
    def one() -> "DiffExpr":
        return _ONE

    @staticmethod
    def rational(q: Rat) -> "DiffExpr":
        return DiffExpr({(): q})

    # -- inspection ---------------------------------------------------

    def terms(self) -> List[Tuple[Monomial, Rat]]:
        """(monomial, coefficient) pairs in monomial order; each coefficient
        is a nonzero rational in the ``_rat`` form."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def families(self) -> set:
        out = set()
        for mono in self._terms:
            for (rank, _), _e in mono:
                out.add(FAMILIES[rank])
        return out

    def max_order(self, family: str) -> int:
        """Highest jet order of the family present; -1 if absent."""
        rank = _RANK[family]
        best = -1
        for mono in self._terms:
            for (r, order), _e in mono:
                if r == rank and order > best:
                    best = order
        return best

    # -- ring structure -----------------------------------------------

    def __add__(self, other, sign: int = 1) -> "DiffExpr":
        other = _coerce_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        out = dict(self._terms)
        _mul_into(out, {(): sign}, other._terms)
        return _expr(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffExpr":
        return _expr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "DiffExpr":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "DiffExpr":
        return (-self).__add__(other)

    def __mul__(self, other) -> "DiffExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, DiffExpr):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        out: Dict[Monomial, Rat] = {}
        _mul_into(out, self._terms, other._terms)
        return _expr(out)

    def __rmul__(self, other) -> "DiffExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rat) -> "DiffExpr":
        """self times an exact rational (anything else is a TypeError)."""
        c = _rat(c)
        if not c:
            return _ZERO
        return _expr({m: _rat(coef * c) for m, coef in self._terms.items()})

    def __pow__(self, n: int) -> "DiffExpr":
        if type(n) is not int:
            raise ValueError(f"non-integer exponent {n!r}")
        if n < 0:
            raise ValueError("negative powers are not representable; use hinv for 1/h'")
        if n == 1:
            return self
        acc = _ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffExpr):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == _coerce_expr(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # zero and constants hash like the rational they compare equal to
        h = self._hash
        if h is None:
            t = self._terms
            if not t:
                h = 0
            elif len(t) == 1 and () in t:
                h = hash(t[()])
            else:
                h = hash(frozenset(t.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        from .syntax import to_text

        return f"DiffExpr({to_text(self)})"


_set_terms = DiffExpr._terms.__set__
_set_hash = DiffExpr._hash.__set__


def _expr(terms: Dict[Monomial, Rat]) -> DiffExpr:
    """The kernel's constructor: ``terms`` are canonical and every
    coefficient is nonzero and in the stored form, so nothing is
    re-checked."""
    e = object.__new__(DiffExpr)
    _set_terms(e, terms)
    _set_hash(e, None)
    return e


_ZERO = DiffExpr()
_ONE = DiffExpr({(): 1})


def _coerce_expr(x):
    if isinstance(x, DiffExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return DiffExpr.rational(x) if x else _ZERO
    return NotImplemented


def jet(family: str, order: int) -> DiffExpr:
    """The jet symbol family[order] as an expression."""
    return DiffExpr({((_check_atom(family, order), 1),): 1})


def hinv() -> DiffExpr:
    return DiffExpr({((_HINV0, 1),): 1})


def hinv_power(n: int) -> DiffExpr:
    """(h')^(-n) for n >= 0, (h')^(+|n|) for n < 0."""
    if type(n) is not int:
        raise ValueError(f"non-integer exponent {n!r}")
    if n >= 0:
        mono = ((_HINV0, n),) if n else ()
    else:
        mono = ((_H1, -n),)
    return DiffExpr({mono: 1})


def check_order_cap(e: DiffExpr, cap: int) -> DiffExpr:
    """e, unless a jet of e has order above cap (OrderCapExceeded).  The
    kernel bounds no order: this bounds an input from outside.  The cap
    must be an int; anything else, a bool included, is a ValueError."""
    if type(cap) is not int:
        raise ValueError(f"the order cap must be an int, got {cap!r}")
    for mono in e._terms:
        for (rank, order), _exp in mono:
            if order > cap:
                raise OrderCapExceeded(
                    f"jet order {order} exceeds cap {cap} for family {FAMILIES[rank]!r}")
    return e


# -- total derivative -------------------------------------------------

_D_HINV_MONO = _mono_from_pairs([((_H, 2), 1), (_HINV0, 2)])


def total_derivative(e: DiffExpr) -> DiffExpr:
    """Formal d/dz: Leibniz over monomials, family[n] -> family[n+1],
    hinv -> -h[2]*hinv^2, rationals constant (_derivative_into)."""
    out: Dict[Monomial, Rat] = {}
    _derivative_into(out, e._terms)
    return _expr(out)


def _derivative_into(out: Dict[Monomial, Rat], terms: Mapping[Monomial, Rat],
                     sign: int = 1) -> None:
    """Add sign * D(terms) into out, in place: the kernel's one derivative
    loop, one term per factor of every monomial.

    The derived monomial is built by shifting the sorted tuple: atom i loses
    one power, and its successor (rank, order+1) can only sit at i+1, where
    it is bumped or inserted.  Neither step can meet the hinv*h[1] rule.
    """
    for mono, coef in terms.items():
        if sign < 0:
            coef = -coef
        last = len(mono) - 1
        for i, (atom, exp) in enumerate(mono):
            if atom == _HINV0:
                rest = mono[:i] + ((atom, exp - 1),) if exp > 1 else mono[:i]
                new = _mono_mul(rest, _D_HINV_MONO)
                c = coef * -exp
            else:
                rank, order = atom
                head = mono[:i] + ((atom, exp - 1),) if exp > 1 else mono[:i]
                up = (rank, order + 1)
                if i < last and mono[i + 1][0] == up:
                    new = head + ((up, mono[i + 1][1] + 1),) + mono[i + 2:]
                else:
                    new = head + ((up, 1),) + mono[i + 1:]
                c = coef * exp if exp > 1 else coef
            acc = out.get(new)
            s = c if acc is None else acc + c
            if type(s) is not int:
                s = _rat(s)
            if s:
                out[new] = s
            else:
                del out[new]


# -- substitution -----------------------------------------------------


def substitute(e: DiffExpr, bindings: Mapping[str, DiffExpr]) -> DiffExpr:
    """Simultaneously replace whole families.

    Each binding gives the order-0 replacement; family[n] is replaced by the
    n-th total derivative of the binding.  Replacement is single-pass: the
    prolonged tables are built from the original bindings before anything is
    rewritten, so self-referential bindings (bracket insertion) are fine.
    """
    for fam in bindings:
        if fam not in _RANK:
            raise ValueError(f"unknown jet family {fam!r}")
        if fam in ("h", "hinv"):
            raise ValueError(f"family {fam!r} cannot be rebound")
    ranks = {_RANK[fam]: fam for fam in bindings}
    table: Dict[Atom, DiffExpr] = {}
    for fam, base in bindings.items():
        need = e.max_order(fam)
        cur = base
        rank = _RANK[fam]
        for order in range(0, need + 1):
            table[(rank, order)] = cur
            if order < need:
                cur = total_derivative(cur)
    return substitute_jets(e, table)


def substitute_jets(e: DiffExpr, table: Mapping[Atom, DiffExpr]) -> DiffExpr:
    """Replace individual jet symbols by expressions (homomorphically).

    Families that appear in the table must be covered at every order
    occurring in ``e``; a missing order raises KeyError.  Symbols of other
    families are kept.

    A value with one term (after raising it to the exponent it meets) is
    folded into the monomial at once, as a monomial merge and a coefficient,
    so renaming a jet builds no product.  The other factors of each
    monomial, in atom order, are the path of its rest (kept and folded
    part, with its coefficient) in a trie, where rests with the same path
    are summed.  The trie is then read in multivariate Horner form: a node
    is its own rests plus, for each child, the child's sum times the factor
    leading to it, accumulated in place into one dict.  So factors shared
    by several monomials are multiplied once, on their summed rests.
    """
    bound_ranks = {atom[0] for atom in table}
    # (atom, exp) -> table[atom] ** exp: a (monomial, coefficient) pair
    # when it has one term, 0 when it is zero, else its terms; True for an
    # atom that is kept
    powers: Dict[Tuple[Atom, int], object] = {}
    # a trie node: (summed rests, children keyed by (atom, exp))
    root: Tuple[Dict[Monomial, Rat], Dict] = ({}, {})
    for mono, coef in e._terms.items():
        keep = []
        folded = False
        node = root
        for key in mono:
            got = powers.get(key)
            if got is None:
                atom, exp = key
                value = table.get(atom)
                if value is not None:
                    terms = (value ** exp)._terms
                    got = next(iter(terms.items())) if len(terms) == 1 else terms or 0
                elif atom[0] in bound_ranks:
                    raise KeyError(
                        f"binding table covers family {FAMILIES[atom[0]]!r} "
                        f"but not order {atom[1]}"
                    )
                else:
                    got = True
                powers[key] = got
            if got is True:
                keep.append(key)
            elif type(got) is tuple:
                keep += got[0]
                coef = coef * got[1]
                folded = True
            elif got:
                node = node[1].get(key) or node[1].setdefault(key, ({}, {}))
            else:
                coef = 0
        if coef:
            rest = _mono_from_pairs(keep) if folded else tuple(keep)
            _mul_into(node[0], {rest: coef}, _ONE._terms)
    return _expr(_horner(root, powers))


def _horner(node, powers) -> Dict[Monomial, Rat]:
    """The sum a substitute_jets trie node stands for, built in its own
    dict of rests."""
    out, children = node
    for key, child in children.items():
        part = _horner(child, powers)
        if part:
            _mul_into(out, part, powers[key])
    return out


# -- variational calculus ----------------------------------------------


def _partials(e: DiffExpr, rank: int,
              order: Optional[int] = None) -> Dict[int, Dict[Monomial, Rat]]:
    """The partial derivatives of e by the jets of one family, in one pass
    over e: order j -> the terms of d e / d (rank, j); only j = order when
    given.  This is the one place that removes a power of a jet."""
    out: Dict[int, Dict[Monomial, Rat]] = {}
    for mono, coef in e._terms.items():
        for i, (a, exp) in enumerate(mono):
            if a[0] != rank or (order is not None and a[1] != order):
                continue
            # removing one power of the same atom keeps distinct monomials
            # distinct, so no two terms of one partial meet
            part = out.setdefault(a[1], {})
            if exp > 1:
                part[mono[:i] + ((a, exp - 1),) + mono[i + 1:]] = _rat(coef * exp)
            else:
                part[mono[:i] + mono[i + 1:]] = coef
    return out


def partial_derivative(e: DiffExpr, family: str, order: int) -> DiffExpr:
    """Formal partial derivative with respect to one jet symbol (hinv is
    taken as a symbol of its own here), read from the splitter _partials."""
    rank, order = _check_atom(family, order)
    return _expr(_partials(e, rank, order).get(order, {}))


def euler_derivative(e: DiffExpr, family: str) -> DiffExpr:
    """Variational derivative sum_j (-D)^j P_j, P_j = d e / d family[j].

    One pass splits e into every P_j (_partials); then the Horner form
    P_0 - D(P_1 - D(P_2 - ...)) adds -D of the step above into each P_j in
    place (_derivative_into), one pass per order.  The
    family must be a free one: h's jets start at order 1 (h[1] is h'), so
    its P_0 is empty and h[2] reads as D(h[1]); hinv, which is 1/h[1] and
    not a free jet, is refused, and so is an expression carrying it when
    the family is h.
    """
    if family not in _RANK:
        raise ValueError(f"unknown jet family {family!r}")
    if family == "hinv":
        raise ValueError("hinv is 1/h[1], not a free jet family; it has no Euler derivative")
    if family == "h" and "hinv" in e.families():
        raise ValueError("the Euler derivative in h needs an hinv-free expression (hinv is 1/h[1])")
    parts = _partials(e, _RANK[family])
    out: Dict[Monomial, Rat] = {}
    for j in range(max(parts, default=-1), -1, -1):
        step = parts.get(j, {})
        _derivative_into(step, out, -1)
        out = step
    return _expr(out)

