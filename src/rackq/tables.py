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

import itertools
import math
import re
from operator import attrgetter, itemgetter

Perm = tuple[int, ...]

# The column search fills in every column forced by right
# self-distributivity, so n = 5 takes a few tens of milliseconds.  At
# n = 6, _enumerate_racks gives the published counts in about 2 s each;
# the cap stays at 5 because the tests run every order up to it.
MAX_ENUM_ORDER = 5

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


def _quoted(text: str) -> str:
    """How an error message quotes a literal from outside: the repr of
    its excerpt, and the note of its length."""
    shown, more = excerpt(text)
    return f"{shown!r}{more}"


class RackParseError(ValueError):
    """Malformed ``.rack`` text, with 1-based line/column of the offender."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class Record:
    """Immutable value record: the fields are the subclass's ``__slots__``.

    A subclass declares its fields in ``__slots__`` and sets each one in
    its ``__init__`` with ``object.__setattr__``.  Records compare equal
    only to records of the same class with equal fields, hash as the
    tuple of their fields, and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._key = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

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
        # copy and pickle rebuild through __init__, which the frozen
        # __setattr__ leaves as the only way to set a field
        return self.__class__, self._key(self)


class Table(Record):
    """Operation table of a finite magma on {0..n-1}.

    Structural well-formedness (square shape, entries in range) is
    enforced at construction; it is distinct from any axiom holding.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(row) for row in rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("table must have positive order")
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has {len(row)} entries, expected {n}")
            for y, e in enumerate(row):
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                    raise ValueError(
                        f"entry {e!r} at row {x}, column {y} out of range 0..{n - 1}"
                    )

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "Table":
        # Fast path for tables rackq builds itself: rows is already a
        # tuple of n tuples of n ints in 0..n-1.
        obj = object.__new__(cls)
        object.__setattr__(obj, "rows", rows)
        return obj

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

    def __init__(
        self,
        idempotent: bool,
        right_invertible: bool,
        right_self_distributive: bool,
        is_rack: bool,
        is_quandle: bool,
    ):
        assert is_rack == (right_invertible and right_self_distributive)
        assert is_quandle == (is_rack and idempotent)
        object.__setattr__(self, "idempotent", idempotent)
        object.__setattr__(self, "right_invertible", right_invertible)
        object.__setattr__(self, "right_self_distributive", right_self_distributive)
        object.__setattr__(self, "is_rack", is_rack)
        object.__setattr__(self, "is_quandle", is_quandle)


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
    perm = [len(set(col)) == n for col in cols]
    return cols, None if all(perm) else perm.index(False)


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
    # one map reads each row once, and most maps fail on an early row
    row_maps = map(_picker, rows) if len(maps) == 1 else [_picker(row) for row in rows]
    for f in maps:
        at = _picker(f)
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
    table is a permutation.
    """
    rows = m.rows
    cols, bad = _columns(rows)
    idem = all(row[x] == x for x, row in enumerate(rows))
    rinv = bad is None
    rsd = _homomorphic(rows, rows, cols)
    rack = rinv and rsd
    return AxiomReport(idem, rinv, rsd, rack, rack and idem)


# The (rows, inverse rows) of the last table _rack_tables passed.  It
# holds the rows object itself, so no other object can take its identity
# while it is recorded, and it is replaced as one tuple.
_last_rack = (None, None)


def _rack_tables(r: Table):
    """Rows of r and of its inverse operation; ValueError unless r is a rack.

    The columns are built once, for both the rack test and the inverse.
    The last rack is remembered by the identity of its rows, so calls
    back to back on one table (every quotient of a census) check it once.
    """
    global _last_rack
    rows = r.rows
    last = _last_rack
    if last[0] is rows:
        return last
    cols, bad = _columns(rows)
    if bad is not None or not _homomorphic(rows, rows, cols):
        raise ValueError("not a rack")
    _last_rack = last = (rows, _inverse_rows(cols))
    return last


def inverse_table(m: Table) -> Table:
    """Table of the right-inverse operation.

    Entry (x, y) is the image of x under the inverse of column-permutation
    S_y, so that (x *' y) * y = x and (x * y) *' y = x on all pairs.
    """
    return Table._from_rows(_inverse_rows(_permutation_columns(m.rows)))


def exponent(r: Table) -> int:
    """Least k >= 1 with S_y^k the identity for every y.

    Finite for any finite rack (each symmetry lies in the symmetric group,
    so k <= n! always works).
    """
    _rack_tables(r)
    return _exponent(r.rows)


def _exponent(rows) -> int:
    """exponent of raw table rows already known to form a rack."""
    return math.lcm(*map(perm_order, zip(*rows)))


# ---------------------------------------------------------------------------
# enumeration

def relabel(m: Table, p: Perm) -> Table:
    """Isomorphic copy of m under the relabelling x -> p[x].

    ValueError unless p is a permutation of 0..n-1, n the order of m.
    """
    n = m.order
    if len(p) != n or any(type(v) is not int for v in p) or not is_permutation(p):
        shown, more = excerpt(str(p))
        raise ValueError(f"relabelling {shown}{more} is not a permutation of 0..{n - 1}")
    return Table._from_rows(_relabel_rows(m.rows, p, invert_perm(p)))


def _relabel_rows(rows, p, q):
    """Raw rows of the relabelling x -> p[x], where q is p inverse."""
    return tuple(tuple([p[r[j]] for j in q]) for r in [rows[i] for i in q])


def _twin_classes(rows) -> list[int]:
    """The least element each element is a twin of.

    Elements c and d are twins when the transposition (c d) is an
    automorphism: (c d) applied to x*y gives (c d)x * (c d)y for all x, y,
    which _homomorphic decides.  Conjugating (c d) by (d e) gives (c e),
    so being twins is an equivalence and one check against each class
    found so far settles an element.
    """
    n = len(rows)
    cols = list(zip(*rows))
    least = list(range(n))
    reps = []
    for c in range(n):
        for d in reps:
            s = list(range(n))
            s[c], s[d] = d, c
            at = itemgetter(*s)
            # column c first: it settles most pairs that are not twins
            if tuple([s[v] for v in cols[c]]) == at(cols[d]) and _homomorphic(rows, rows, (s,)):
                least[c] = d
                break
        else:
            reps.append(c)
    return least


def _take_least_label(x, label, elem, lo_of, cells) -> None:
    """Give x the least label of its cell (see _canonical_rows); a member
    left alone in the cell takes the label after it."""
    lo = lo_of[x]
    rest = tuple([z for z in cells.pop(lo) if z != x])
    label[x], elem[lo] = lo, x
    _place_cell(rest, lo + 1, label, elem, lo_of, cells)


def _place_cell(members, lo, label, elem, lo_of, cells) -> None:
    """Make members the cell whose labels start at lo; one member takes lo."""
    if len(members) == 1:
        label[members[0]], elem[lo] = lo, members[0]
    else:
        cells[lo] = members
        for z in members:
            lo_of[z] = lo


def _same_orbit(gens, c, d) -> bool:
    """Whether the group generated by the permutations gens takes c to d."""
    seen, todo = {c}, [c]
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if y == d:
                return True
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return False


def _canonical_rows(rows):
    """Least relabelling of raw table rows, in tuple order.

    Entry (i, y) of a relabelling is the label of e_i * e_y, where e_l is
    the element with label l.  The search reads the relabelled table row
    by row, left to right, and fixes each label when an entry first
    depends on it.  The elements without a label lie in cells: each cell
    owns a run of consecutive labels that its members share out in some
    order not yet fixed.  At the start one cell holds every element.

    - An entry whose element has no label yet gives it the least label of
      its cell.  That is the least the entry can be, so it is forced.
    - When entry (i, y) needs e_y and every member c of its cell gives an
      e_i * c that has a label, the least table reads those labels in
      ascending order.  The cell splits into cells of equal entries,
      with no choice made.
    - Otherwise, and when row i needs e_i, the search branches on the
      members of the cell that give the least entry.  For row 0 these
      are the elements a with a*a = a, when there is one.

    A branch is cut when a row read so far exceeds the same part of the
    best table found.  An automorphism that fixes every labelled element
    at a branch point also keeps every cell, so it maps the subtree of
    one member onto the subtree of its image, with the same tables.  Two
    kinds are used (McKay and Piperno, Practical graph isomorphism II,
    2014): the transposition of twins (see _twin_classes), so only one
    member of each twin class is tried; and, when a branch reads a table
    equal to the best, the map from its labelling to the best one, which
    skips later members that it (with those found before) takes to a
    member already tried.
    """
    n = len(rows)
    if n == 1:
        return rows
    best = None  # the least table so far, as one flat tuple
    best_elem = None  # elem of the labelling that gave best
    cert = []  # entries read on the current branch
    twin_of = None  # _twin_classes(rows), built at the first real choice
    auts = []  # automorphisms found by reading a table equal to best

    def search(i, y, tied, label, elem, lo_of, cells):
        # Read on from entry (i, y); tied: cert equals the start of best.
        nonlocal best, best_elem, twin_of
        top = len(cert)
        try:
            while True:
                # read entries until one needs a choice
                while i < n:
                    e_i = elem[i]
                    if e_i < 0:
                        # row i needs e_i; entry (i, 0) for each member c
                        # that could take label i is the label of c * e_0
                        lo, cell = i, cells[i]
                        ts = [rows[c][c if i == 0 else elem[0]] for c in cell]
                        break
                    r = rows[e_i]
                    while y < n:
                        c = elem[y]
                        if c >= 0:
                            t = r[c]
                            if label[t] < 0:
                                _take_least_label(t, label, elem, lo_of, cells)
                            cert.append(label[t])
                            y += 1
                            continue
                        cell = cells[y]
                        ts = [r[x] for x in cell]
                        vals = [label[t] for t in ts]
                        if -1 in vals:
                            break
                        if vals.count(vals[0]) == len(vals):
                            # one value: the cell stays whole
                            cert.extend(vals)
                            y += len(cell)
                            continue
                        del cells[y]
                        pairs = sorted(zip(vals, cell))
                        cert.extend([v for v, _ in pairs])
                        for _, group in itertools.groupby(pairs, itemgetter(0)):
                            members = tuple([x for _, x in group])
                            _place_cell(members, y, label, elem, lo_of, cells)
                            y += len(members)
                    if tied:
                        p = i * n
                        now, b = tuple(cert[p:]), best[p:len(cert)]
                        if now != b:
                            if now > b:
                                return
                            tied = False
                    if y < n:
                        lo = y
                        break
                    i += 1
                    y = 0
                else:
                    if tied:
                        auts.append(tuple([best_elem[label[x]] for x in range(n)]))
                    else:
                        best, best_elem = tuple(cert), elem[:]
                    return
                # the members of the cell of label lo that give the least entry
                least = n
                cands = []
                for c, t in zip(cell, ts):
                    v = label[t]
                    if v < 0:
                        v = lo if t == c else lo + 1 if lo_of[t] == lo else lo_of[t]
                    if v < least:
                        least, cands = v, [c]
                    elif v == least:
                        cands.append(c)
                if tied and least > best[len(cert)]:
                    return
                if len(cands) > 1:
                    if twin_of is None:
                        twin_of = _twin_classes(rows)
                    cands = list({twin_of[c]: c for c in reversed(cands)}.values())
                if len(cands) == 1:
                    _take_least_label(cands[0], label, elem, lo_of, cells)
                    continue
                tried = []
                for c in cands:
                    if tried and auts:
                        gens = [g for g in auts if all(g[x] == x for x in elem if x >= 0)]
                        if gens and any(_same_orbit(gens, c, d) for d in tried):
                            continue
                    tried.append(c)
                    state = label[:], elem[:], lo_of[:], dict(cells)
                    _take_least_label(c, *state)
                    search(i, y, tied, *state)
                    # best now starts with cert
                    tied = True
                return
        finally:
            del cert[top:]

    search(0, 0, False, [-1] * n, [-1] * n, [0] * n, {0: tuple(range(n))})
    # search refers to itself through its closure cell; deleting the name
    # breaks that cycle, so the cyclic collector has nothing to free
    del search
    return tuple(best[x * n:(x + 1) * n] for x in range(n))


def canonical_form(m: Table) -> Table:
    """Lexicographically least table among all simultaneous relabellings.

    Found by a depth-first search that fixes one label at a time and
    branches only where the least table is still open (_canonical_rows),
    not by trying all n! relabellings.
    """
    return Table._from_rows(_canonical_rows(m.rows))


def enumerate_racks(n: int, quandles_only: bool = False, up_to_iso: bool = False) -> list[Table]:
    """All racks (or quandles) of order n, as operation tables.

    Searches over n-tuples of column permutations, so right invertibility
    is built in.  Right self-distributivity in column form is
    S_{S_z(y)} = S_z S_y S_z^-1: once S_y and S_z are set, the column at
    S_z(y) is forced.  The search branches on the lowest unset column k,
    fills in every column forced by the columns set so far, and
    backtracks on a conflict.  Columns are indices into the n!
    permutations in lexicographic order, and a composition table makes
    each forced column two list lookups.  The pair (k, k) forces
    S_{p(k)} = p, and each set column permutes the set columns, so a
    candidate p must send k to an unset column (quandles: to k itself).

    With up_to_iso, keeps one table per isomorphism class: the
    lexicographically least relabelling, which is canonical_form of each
    member.  The labelled racks are closed under relabelling, so the
    classes are their relabelling orbits.  Relabelling by p moves S_y to
    position p(y) as p S_y p^-1, one composition lookup per column, so
    each table not yet covered gives one class, its orbit built as index
    tuples.  Output is sorted by table rows, so the order is deterministic.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        shown, more = excerpt(str(n))
        raise ValueError(f"order {shown}{more} outside supported range 1..{MAX_ENUM_ORDER}")
    return _enumerate_racks(n, quandles_only, up_to_iso)


def _enumerate_racks(n: int, quandles_only: bool, up_to_iso: bool) -> list[Table]:
    """enumerate_racks without the order cap."""
    perms = list(itertools.permutations(range(n)))
    found = _rack_columns(perms, quandles_only, up_to_iso)
    # Each index tuple becomes its rows in place once the composition table
    # is freed; tables share equal rows (a few hundred distinct rows make
    # up all 1,708 racks of order 5).
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, c in enumerate(found):
        found[i] = tuple([shared.setdefault(row, row) for row in zip(*map(perms.__getitem__, c))])
    found.sort()
    return [Table._from_rows(rows) for rows in found]


def _composition_table(perms, index) -> list[tuple[int, ...]]:
    """comp[i][j]: the index of x -> p_j(p_i(x)), where p_i = perms[i] and
    perms[0] is the identity.  Only the rows of the adjacent transpositions
    look permutations up; if p_i is p_a followed by a transposition p_g,
    row i is row a read at the entries of row g, in one C call."""
    n, count = len(perms[0]), len(perms)
    comp: list = [None] * count
    comp[0] = tuple(range(count))
    gens = []
    for k in range(n - 1):
        g = index[(*range(k), k + 1, k, *range(k + 2, n))]
        at = _picker(perms[g])
        comp[g] = tuple([index[at(q)] for q in perms])
        gens.append(g)
    built = [0, *gens]  # the rows built so far, each extended by every generator
    for a in built:
        row = comp[a]
        for g in gens:
            i = row[g]
            if comp[i] is None:
                comp[i] = _picker(comp[g])(row)
                built.append(i)
    return comp


def _rack_columns(perms, quandles_only: bool, up_to_iso: bool) -> list[tuple[int, ...]]:
    """The racks of order n as tuples of column indices into perms, the
    n! permutations of 0..n-1 in order; with up_to_iso, the member of
    each relabelling orbit with the least rows."""
    n = len(perms[0])
    index = {p: i for i, p in enumerate(perms)}
    inv = [index[invert_perm(p)] for p in perms]
    comp = _composition_table(perms, index)
    # by_image[k][v]: the indices of the p with p(k) = v
    by_image = [[[i for i, p in enumerate(perms) if p[k] == v] for v in range(n)] for k in range(n)]
    cols = [-1] * n  # the index of each column, -1 while unset
    assigned: list[int] = []  # column positions, in the order they were set
    found: list[tuple[int, ...]] = []

    def close(start: int) -> bool:
        # Check each pair (c, z), (z, c) of set columns once, when the later
        # is set: set S_w = S_z S_c S_z^-1 at w = S_z(c), or False on a
        # conflict.  Forced columns join the queue; in the quandle search
        # they fix their index, as S_w(w) = S_z(S_c(c)) = w.
        i = start
        while i < len(assigned):
            c = assigned[i]
            a = cols[c]
            pa, after_inv_a = perms[a], comp[inv[a]]
            for z in assigned[:i + 1]:
                b = cols[z]
                w, s = perms[b][c], comp[comp[inv[b]][a]][b]
                t = cols[w]
                if t < 0:
                    cols[w] = s
                    assigned.append(w)
                elif t != s:
                    return False
                w, s = pa[z], comp[after_inv_a[b]][a]
                t = cols[w]
                if t < 0:
                    cols[w] = s
                    assigned.append(w)
                elif t != s:
                    return False
            i += 1
        return True

    def search() -> None:
        if len(assigned) == n:
            found.append(tuple(cols))
            return
        k = cols.index(-1)
        mark = len(assigned)
        images = (k,) if quandles_only else [v for v in range(n) if cols[v] < 0]
        for p in [p for v in images for p in by_image[k][v]]:
            cols[k] = p
            assigned.append(k)
            if close(mark):
                search()
            for c in assigned[mark:]:
                cols[c] = -1
            del assigned[mark:]

    search()
    del search  # it refers to itself through its closure cell; break that cycle
    if not up_to_iso:
        return found
    # relabelling by p puts the conjugate of the column at q(y) at y, q = p^-1
    moves = [(comp[inv[p]], p, perms[inv[p]]) for p in range(len(perms))]
    uncovered = set(found)
    reps = []
    for c in found:
        if c in uncovered:
            orbit = {tuple([comp[after[c[j]]][p] for j in q]) for after, p, q in moves}
            uncovered -= orbit
            # the member with the least rows
            reps.append(min(orbit, key=lambda d: tuple(zip(*map(perms.__getitem__, d)))))
    return reps


# ---------------------------------------------------------------------------
# example families

def trivial(n: int) -> Table:
    """The trivial quandle: x * y = x."""
    return Table(tuple((x,) * n for x in range(n)))


def constant_action(p: Perm) -> Table:
    """Constant action rack of a bijection: x * y = p[x] for every y."""
    if not is_permutation(p):
        raise ValueError("constant action requires a permutation")
    n = len(p)
    return Table(tuple((p[x],) * n for x in range(n)))


def dihedral(n: int) -> Table:
    """Dihedral quandle on Z_n: x * y = (2y - x) mod n."""
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


def _lines(text: str):
    """The lines of text.splitlines(), one at a time, so that a reader
    holds no more than one line beside the text."""
    pos = 0
    for brk in re.finditer(_LINE_BREAK, text):
        yield text[pos:brk.start()]
        pos = brk.end()
    if pos < len(text):
        yield text[pos:]


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
            order_text = "".join(excerpt(str(order)))
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
                shown, more = excerpt(str(e))
                raise RackParseError(
                    f"line {lineno}, column {colno}: entry out of range 0..{order - 1}: "
                    f"{shown}{more}",
                    lineno, colno,
                )
            entries.append(e)
        rows.append(tuple(entries))
    if order is None:
        raise RackParseError("empty input")
    if len(rows) != order:
        raise RackParseError(f"expected {order_text} rows, got {len(rows)}")
    return Table(tuple(rows))


def format_rack(m: Table) -> str:
    lines = [str(m.order)]
    lines.extend(" ".join(str(e) for e in row) for row in m.rows)
    return "\n".join(lines) + "\n"
