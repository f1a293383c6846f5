"""Finite magmas, racks and quandles as operation tables.

A magma of order n is stored as an n x n table of element indices: the
entry at (row x, column y) is x * y, read as "y acting on x".  Column y
of the table is then the symmetry map S_y : x -> x * y, and the magma is
right invertible exactly when every column is a permutation.

A rack is a right-invertible, right self-distributive magma; a quandle
is an idempotent rack.  All values here are immutable and all functions
are pure.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from itertools import starmap
from operator import attrgetter, itemgetter

Perm = tuple[int, ...]

# The column search fills in every column forced by right
# self-distributivity: n = 5 takes a few tens of milliseconds, and n = 6
# (36,538 racks in 353 classes, 73 of them quandles) about 2 s a call.
MAX_ENUM_ORDER = 6

PRIMARY = "primary"
INVERSE = "inverse"

# Characters of a malformed literal that an error message echoes back.
EXCERPT_CHARS = 40


def side_sign(side: str) -> int:
    """1 for the primary operation, -1 for the inverse one."""
    if side == PRIMARY:
        return 1
    if side == INVERSE:
        return -1
    raise ValueError(f"side must be {PRIMARY!r} or {INVERSE!r}")


def _draw(bits, lo: int, hi: int) -> int:
    """rng.randrange(lo, hi + 1) for bits = rng.getrandbits of a
    random.Random: the same value from the same bits, without the three
    Python frames of the library call.  Like CPython's
    _randbelow_with_getrandbits (3.10-3.13), it draws n.bit_length()
    bits for the n = hi - lo + 1 values and draws again while they read
    n or more."""
    n = hi - lo + 1
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return lo + r


def excerpt(text: str) -> tuple[str, str]:
    """What an error message echoes of outside input: the first
    EXCERPT_CHARS characters of text, and a note of its full length when
    it is longer (else "")."""
    if len(text) <= EXCERPT_CHARS:
        return text, ""
    return text[:EXCERPT_CHARS], f"... ({len(text)} characters)"


def _quoted(value) -> str:
    """How an error message quotes a value from outside: a string as the
    repr of its excerpt, anything else as the excerpt of its repr, each
    with the note of its length.  repr refuses an int past Python's
    int-to-str limit (4,300 digits by default), and any value that holds
    one; such a value is named by its type and size instead."""
    if isinstance(value, str):
        shown, more = excerpt(value)
        return f"{shown!r}{more}"
    try:
        shown, more = excerpt(repr(value))
    except ValueError:
        if isinstance(value, int):
            return f"<int of about {int(math.log10(abs(value))) + 1} digits>"
        return f"<{type(value).__name__} holding an int too long to print>"
    return shown + more


class RackParseError(ValueError):
    """Malformed ``.rack`` text, with 1-based line/column of the offender."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class Record:
    """Immutable value record: the fields are the subclass's ``__slots__``.

    The constructor takes the fields by position, then by name, as a
    dataclass's does.  Records compare equal only to records of the same
    class with equal fields, hash as the tuple of their fields, and print
    as ``Name(field=value, ...)``.

    Every record is made by ``Cls._new(*fields)``, the trusted
    constructor: it stores the fields as given, and no check runs.  Code
    that builds a record from values it knows are valid and canonical
    calls it.  ``Cls(...)`` is the checked constructor: a class with
    checks does them in its own ``__new__`` and returns ``cls._new`` of
    the values it computed.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = attrgetter(*names)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._key = staticmethod(get if len(names) > 1 else lambda r: (get(r),))
        # _new sets each field through its slot, past the frozen
        # __setattr__: one unrolled store per field from a template, as
        # collections.namedtuple builds its methods, since a loop over the
        # slots' setters took about twice as long
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        namespace.update(_object_new=object.__new__, _cls=cls)
        lines = [f"def _new({', '.join(names)}):", "    _obj = _object_new(_cls)"]
        lines += [f"    _set_{name}(_obj, {name})" for name in names]
        exec("\n".join(lines + ["    return _obj"]), namespace)
        cls._new = staticmethod(namespace["_new"])

    def __new__(cls, *args, **kwargs):
        names = cls.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(
                    f"{cls.__qualname__}({', '.join(names)}) takes each field "
                    f"once, got {len(args)} by position and {[*kwargs]} by name"
                )
            args += tuple(kwargs[name] for name in rest)
        return cls._new(*args)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return self.__class__, self._key(self)


class Table(Record):
    """Operation table of a finite magma on {0..n-1}.

    Structural well-formedness (square shape, entries in range) is
    enforced at construction; it is distinct from any axiom holding.
    """

    __slots__ = ("rows",)

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("table must have positive order")
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has {len(row)} entries, expected {n}")
            for y, e in enumerate(row):
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                    raise ValueError(
                        f"entry {_quoted(e)} at row {x}, column {y} out of range 0..{n - 1}"
                    )
        return cls._new(rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def op(self, x: int, y: int) -> int:
        """x * y."""
        return self.rows[x][y]

    def column(self, y: int) -> Perm:
        """The map S_y : x -> x * y as an image tuple."""
        return tuple(row[y] for row in self.rows)


class AxiomReport(Record):
    """Exhaustive truth values of the three magma axioms."""

    __slots__ = (
        "idempotent", "right_invertible", "right_self_distributive", "is_rack", "is_quandle",
    )

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        assert report.is_rack == (report.right_invertible and report.right_self_distributive)
        assert report.is_quandle == (report.is_rack and report.idempotent)
        return report


class CongruenceClass(Enum):
    """Which of the two rack operations a relation respects.

    RIGHT_ONLY and LEFT_ONLY are the half congruences: the relation
    respects only the primary (resp. only the inverse) operation.
    """

    BOTH = "Both"
    RIGHT_ONLY = "RightOnly"
    LEFT_ONLY = "LeftOnly"
    NEITHER = "Neither"


# The class of a relation, by whether it respects (primary, inverse).
_CLASS_OF = {
    (True, True): CongruenceClass.BOTH,
    (True, False): CongruenceClass.RIGHT_ONLY,
    (False, True): CongruenceClass.LEFT_ONLY,
    (False, False): CongruenceClass.NEITHER,
}


def _respects(op, related, quads, side: str) -> bool:
    """Whether related(a op b, c op d) on the given side for every
    quadruple (a, b, c, d), each drawn with a related to c and b to d."""
    return all(related(op(a, b, side), op(c, d, side)) for a, b, c, d in quads)


def _half_witness(op, related, quad, side: str):
    """quad = (a, b, c, d) when a ~ c and b ~ d but a op b and c op d on
    the side are not related, by the definition; else None.  ValueError
    for an unknown side, before anything is computed."""
    side_sign(side)
    a, b, c, d = quad
    fails = related(a, c) and related(b, d) and not _respects(op, related, (quad,), side)
    return quad if fails else None


# ---------------------------------------------------------------------------
# permutation helpers

def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    """Least k >= 1 with p^k the identity (lcm of cycle lengths)."""
    seen = [False] * len(p)
    result = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        result = math.lcm(result, length)
    return result


def is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


# ---------------------------------------------------------------------------
# axioms

def _picker(idx):
    """The map s -> (s[i] for i in idx), as a tuple, in one C call."""
    if len(idx) == 1:
        i = idx[0]
        return lambda s: (s[i],)
    return itemgetter(*idx)


def _columns(rows):
    """The columns S_y of raw table rows, and the first y whose column is
    not a permutation (None when the table is right invertible).  The
    entries lie in 0..n-1, so n distinct ones make a permutation."""
    n = len(rows)
    cols = tuple(zip(*rows))
    if min(map(len, map(set, cols))) == n:
        return cols, None
    return cols, next(y for y, col in enumerate(cols) if len(set(col)) < n)


def _permutation_columns(rows):
    """The columns of raw table rows; ValueError unless each one is a
    permutation, that is unless the table is right invertible."""
    cols, bad = _columns(rows)
    if bad is not None:
        raise ValueError(f"column {bad} is not a permutation; not right invertible")
    return cols


def _homomorphic(rows, target, maps) -> bool:
    """Whether each image tuple f in maps is a homomorphism from the table
    of raw rows `rows` to that of `target`: f(x*y) = f(x)*f(y) for all x, y.

    The one homomorphism test of the finite layer.  Right
    self-distributivity is _homomorphic(rows, rows, columns): every S_z an
    endomorphism.  Row x of the left side is row x of rows mapped through
    f, and of the right side row f(x) of target read at the columns f(y).
    """
    if len(rows) == 1:  # the one product is 0 * 0 = 0; itemgetter(i) gives no 1-tuple
        return all(target[x][x] == x for x, in maps)
    # one map reads each row once, and most maps fail on an early row
    row_maps = starmap(itemgetter, rows) if len(maps) == 1 else [*starmap(itemgetter, rows)]
    for f in maps:
        at = itemgetter(*f)
        for through, image_row in zip(row_maps, at(target)):
            if through(f) != at(image_row):
                return False
    return True


def _inverse_rows(cols):
    """Rows of the right-inverse operation, from permutation columns."""
    return tuple(zip(*map(invert_perm, cols)))


def validate(m: Table) -> AxiomReport:
    """Check idempotence, right invertibility and right self-distributivity.

    Each flag is the exhaustive truth value over all pairs (triples for
    distributivity).  Right invertibility holds iff every column of the
    table is a permutation.  A rack is remembered as _rack_rows does, and
    the flags are consistent by construction, so the report is unchecked.
    """
    global _last_rack
    rows = m.rows
    cols, bad = _columns(rows)
    idem = all(row[x] == x for x, row in enumerate(rows))
    rinv = bad is None
    rsd = _homomorphic(rows, rows, cols)
    rack = rinv and rsd
    if rack:
        _last_rack = rows
    return AxiomReport._new(idem, rinv, rsd, rack, rack and idem)


# The rows of the last table that passed the rack check of validate or
# _rack_rows.  It holds the rows object itself, so no other object can
# take its identity while it is recorded.
_last_rack = None


def _rack_rows(r: Table):
    """The rows of r; ValueError unless r is a rack.

    The last rack is remembered by the identity of its rows, so calls
    back to back on one table (validate, then every quotient of a census)
    check it once.
    """
    global _last_rack
    rows = r.rows
    if rows is not _last_rack:
        cols, bad = _columns(rows)
        if bad is not None or not _homomorphic(rows, rows, cols):
            raise ValueError("not a rack")
        _last_rack = rows
    return rows


def inverse_table(m: Table) -> Table:
    """Table of the right-inverse operation.

    Entry (x, y) is the image of x under the inverse of column-permutation
    S_y, so that (x *' y) * y = x and (x * y) *' y = x on all pairs.
    """
    return Table._new(_inverse_rows(_permutation_columns(m.rows)))


def exponent(r: Table) -> int:
    """Least k >= 1 with S_y^k the identity for every y.

    Finite for any finite rack (each symmetry lies in the symmetric group,
    so k <= n! always works).
    """
    return _exponent(_rack_rows(r))


def _exponent(rows) -> int:
    """exponent of raw table rows already known to form a rack."""
    return math.lcm(*map(perm_order, zip(*rows)))


# ---------------------------------------------------------------------------
# relabelling

def relabel(m: Table, p: Perm) -> Table:
    """Isomorphic copy of m under the relabelling x -> p[x].

    ValueError unless p is a permutation of 0..n-1, n the order of m.
    """
    n = m.order
    if len(p) != n or any(type(v) is not int for v in p) or not is_permutation(p):
        raise ValueError(f"relabelling {_quoted(p)} is not a permutation of 0..{n - 1}")
    return Table._new(_relabel_rows(m.rows, p, invert_perm(p)))


def _relabel_rows(rows, p, q):
    """Raw rows of the relabelling x -> p[x], where q is p inverse."""
    return tuple(tuple([p[r[j]] for j in q]) for r in [rows[i] for i in q])


# The canonical-form search and the rack enumeration live in
# rackq._search.  Their public names are read through this module, which
# imports _search the first time one of them is read (PEP 562), so a
# command that never searches never compiles it.
_SEARCH = frozenset({"canonical_form", "enumerate_racks"})


def __getattr__(name):
    if name not in _SEARCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _search

    value = globals()[name] = getattr(_search, name)
    return value


# ---------------------------------------------------------------------------
# example families

def _check_order(n) -> None:
    """Refuse an order that is not an int (a bool included)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"order {_quoted(n)} is not an int")


def trivial(n: int) -> Table:
    """The trivial quandle: x * y = x."""
    _check_order(n)
    return Table(tuple((x,) * n for x in range(n)))


def constant_action(p: Perm) -> Table:
    """Constant action rack of a bijection: x * y = p[x] for every y."""
    if not is_permutation(p):
        raise ValueError("constant action requires a permutation")
    n = len(p)
    return Table(tuple((p[x],) * n for x in range(n)))


def dihedral(n: int) -> Table:
    """Dihedral quandle on Z_n: x * y = (2y - x) mod n."""
    _check_order(n)
    return Table(tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n)))


def double_op(x: int, y: int) -> int:
    """x -> 2x on the integers; a one-sided inverse to halve_op, not invertible."""
    return 2 * x


def halve_op(x: int, y: int) -> int:
    """x -> floor(x/2) on the integers; undoes double_op but not conversely."""
    return x // 2


# ---------------------------------------------------------------------------
# .rack text format

# The line boundaries of str.splitlines, compiled on the first parse (by
# the re module's cache), not when a command that parses nothing imports
# this module.
_LINE_BREAK = r"\r\n|[\n\r\v\f\x1c-\x1e\x85]|\u2028|\u2029"

# The characters a line can end with ("\r\n" ends with its "\n").
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# The most characters _lines hands to one str.splitlines call.
_BLOCK = 1024


def _lines(text: str):
    """The lines of text.splitlines(), one at a time, so that a reader
    holds no more than one line or one block beside the text.

    The text is cut into blocks of at most _BLOCK characters, each
    ending just after its last line break, and splitlines splits each
    one in C.  A "\r" that ends a block is no cut, since it may begin a
    "\r\n".  Where the next _BLOCK characters hold no other break, the
    regex finds the next one."""
    pos, size = 0, len(text)
    while size - pos > _BLOCK:
        end = pos + _BLOCK
        stop = max(text.rfind(c, pos, end - (c == "\r")) for c in _BREAKS) + 1
        if stop:
            yield from text[pos:stop].splitlines()
            pos = stop
            continue
        brk = re.compile(_LINE_BREAK).search(text, pos)
        if brk is None:
            break
        yield text[pos:brk.start()]
        pos = brk.end()
    yield from text[pos:].splitlines()


def parse_rack(text: str) -> Table:
    """Parse the ``.rack`` format: order on the first data line, then one
    row of 0-based entries per line; '#' starts a comment line."""
    order = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if order is None:
            try:
                order = int(line)
            except ValueError:
                raise RackParseError(
                    f"line {lineno}: expected order, got {_quoted(line)}", lineno
                )
            if order <= 0:
                raise RackParseError(f"line {lineno}: order must be positive", lineno)
            # int() takes up to 4,300 digits, so messages echo an excerpt
            order_text = _quoted(order)
            continue
        if len(rows) == order:
            raise RackParseError(f"line {lineno}: more than {order_text} rows", lineno)
        # count the tokens before splitting, so a row of the wrong length
        # is rejected without holding its tokens
        got = sum(1 for _ in re.finditer(r"\S+", line))
        if got != order:
            raise RackParseError(
                f"line {lineno}: expected {order_text} entries, got {got}", lineno
            )
        entries = []
        for colno, tok in enumerate(line.split(), start=1):
            try:
                e = int(tok)
            except ValueError:
                raise RackParseError(
                    f"line {lineno}, column {colno}: not an integer: {_quoted(tok)}",
                    lineno, colno,
                )
            if not 0 <= e < order:
                raise RackParseError(
                    f"line {lineno}, column {colno}: entry out of range 0..{order - 1}: "
                    f"{_quoted(e)}",
                    lineno, colno,
                )
            entries.append(e)
        rows.append(tuple(entries))
    if order is None:
        raise RackParseError("empty input")
    if len(rows) != order:
        raise RackParseError(f"expected {order_text} rows, got {len(rows)}")
    # every entry was checked above
    return Table._new(tuple(rows))


def format_rack(m: Table) -> str:
    lines = [str(m.order)]
    lines.extend(" ".join(str(e) for e in row) for row in m.rows)
    return "\n".join(lines) + "\n"
