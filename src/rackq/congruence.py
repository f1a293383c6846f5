"""Equivalence relations on finite racks: classification, quotients,
homomorphisms and kernels.

A relation is stored as a Partition of {0..n-1} in restricted-growth
form (blocks numbered by first appearance).  A partition respects an
operation * when a ~ c and b ~ d imply a*b ~ c*d; it is a full rack
congruence when it respects both the primary and the inverse operation,
and a half congruence when it respects exactly one of them.  Quotients
exist exactly for full congruences.

On a finite rack a partition respects * exactly when it respects *' (see
the README), so * alone decides every classification here.
"""

from __future__ import annotations

# CongruenceClass and _CLASS_OF live in tables, so that weighted can use
# them without this module
from .tables import (
    _CLASS_OF, CongruenceClass, Record, Table, _check_order, _homomorphic, _permutation_columns,
    _quoted, _rack_rows,
)

# Partition enumeration is Bell-number growth (Bell(8) = 4140, Bell(9) = 21147).
MAX_CONGRUENCE_ORDER = 8


class NotACongruenceError(ValueError):
    """Raised when a quotient is requested for a non-congruence; carries
    the classification, which on a finite rack is always Neither, since
    a partition respects * exactly when it respects *'."""

    def __init__(self, classification: CongruenceClass):
        super().__init__(f"not a full rack congruence: {classification.value}")
        self.classification = classification


def _rgs(labels) -> tuple[int, ...]:
    """Relabel block indices by first appearance."""
    seen: dict = {}
    out = []
    for v in labels:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


class Partition(Record):
    """Partition of {0..n-1}, normalised to a restricted growth string."""

    __slots__ = ("block_of",)

    def __new__(cls, block_of: tuple[int, ...]):
        if len(block_of) == 0:
            raise ValueError("partition of the empty set")
        return cls._new(_rgs(block_of))

    @classmethod
    def from_blocks(cls, blocks, order: int | None = None) -> "Partition":
        """Build from an iterable of blocks of indices; blocks must be
        disjoint and cover {0..order-1}."""
        blocks = [sorted(b) for b in blocks]
        elements = [x for b in blocks for x in b]
        if order is None:
            order = len(elements)
        if len(elements) != order or sorted(elements) != list(range(order)):
            raise ValueError(f"blocks do not partition 0..{order - 1}: {_quoted(blocks)}")
        labels = [0] * order
        for i, b in enumerate(blocks):
            for x in b:
                labels[x] = i
        return cls(tuple(labels))

    @property
    def order(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1

    def together(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Members of each block, in block order (ascending inside)."""
        return _blocks(self.block_of, self.num_blocks)


def _blocks(blk, k):
    """Members of each of the k blocks of the growth string blk."""
    out: list[list[int]] = [[] for _ in range(k)]
    for x, b in enumerate(blk):
        out[b].append(x)
    return tuple(map(tuple, out))


def partitions(n: int):
    """All partitions of {0..n-1}, in restricted-growth-string order."""
    _check_order(n)
    if n < 1:
        raise ValueError("partition of the empty set")
    return (Partition._new(tuple(f)) for f, _ in _labellings([()] * n, (), 0, True, True))


def parse_partition(literal: str, order: int) -> Partition:
    """Parse the CLI literal, e.g. "0,2|1,3"."""
    try:
        blocks = [[int(tok) for tok in part.split(",")] for part in literal.split("|")]
    except ValueError:
        raise ValueError(f"malformed partition literal: {_quoted(literal)}") from None
    return Partition.from_blocks(blocks, order)


def format_partition(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in b) for b in p.blocks())


# ---------------------------------------------------------------------------
# congruence classification and quotients

def _induced_cells(rows, blk, k):
    """Cells of [x] * [y] := [x*y] on k blocks, row-major in one flat list.

    Returns (cells, None) when the block operation is well defined, which
    is exactly when the partition respects the operation; otherwise
    (None, (x, y)) for the first pair whose block product disagrees with
    an earlier one.
    """
    cells = [-1] * (k * k)
    for x, row in enumerate(rows):
        base = blk[x] * k
        for y, xy in enumerate(row):
            i = base + blk[y]
            v = blk[xy]
            c = cells[i]
            if c < 0:
                cells[i] = v
            elif c != v:
                return None, (x, y)
    return cells, None


# The class of a relation on a finite rack, by whether it respects *
_BY_PRIMARY = (_CLASS_OF[False, False], _CLASS_OF[True, True])


def classify_relation(r: Table, p: Partition) -> CongruenceClass:
    """Test the congruence condition for both rack operations.

    A partition respects an operation exactly when the block operation
    [x] * [y] := [x*y] is well defined, which one pass over the n^2
    products of * decides for both operations.
    """
    conflict = try_induced_table(r, p)[1]
    _rack_rows(r)
    return _BY_PRIMARY[conflict is None]


def try_induced_table(m: Table, p: Partition):
    """Attempt [x] * [y] = [x*y] on blocks.

    Returns (table, None) when well defined, else (None, (a, b, c, d))
    with a ~ c, b ~ d but a*b and c*d in different blocks.  ValueError
    unless p partitions the elements of m.
    """
    if p.order != m.order:
        raise ValueError(f"partition order {p.order} != rack order {m.order}")
    blk, k = p.block_of, p.num_blocks
    cells, conflict = _induced_cells(m.rows, blk, k)
    if conflict is not None:
        c, d = conflict
        # the cell was first set by the least member of each block
        return None, (blk.index(blk[c]), blk.index(blk[d]), c, d)
    return Table._new(tuple(tuple(cells[i * k:(i + 1) * k]) for i in range(k))), None


class QuotientRack(Record):
    """Quotient table on blocks, plus the block membership for reporting."""

    __slots__ = ("table", "blocks")


def quotient(r: Table, p: Partition) -> QuotientRack:
    """Quotient rack by a full congruence; block index = growth-string label.

    Raises NotACongruenceError carrying the classification, Neither, when
    p respects neither operation (the one pass over the products of * that
    decides it also fills the quotient's cells).  A mismatched order is
    reported first, then a table that is not a rack.
    """
    blk = p.block_of
    if len(blk) != r.order:
        raise ValueError(f"partition order {p.order} != rack order {r.order}")
    k = max(blk) + 1
    cells = _induced_cells(_rack_rows(r), blk, k)[0]
    if cells is None:
        raise NotACongruenceError(_BY_PRIMARY[False])
    # k cells at a time, from one iterator, make the rows of the quotient
    rows = tuple(zip(*[iter(cells)] * k))
    return QuotientRack._new(Table._new(rows), _blocks(blk, k))


def _products_by_last(rows):
    """The products (x, y, x*y) of raw table rows, grouped by
    max(x, y, x*y): the element whose block completes the cell
    [x] * [y] = [x*y] of the block operation, or whose image completes
    f(x*y) = f(x)*f(y) for a map f."""
    groups = [[] for _ in rows]
    for x, row in enumerate(rows):
        for y, xy in enumerate(row):
            groups[max(x, y, xy)].append((x, y, xy))
    return groups


def _labellings(products, cells, width, growth, every):
    """Each labelling f of 0..n-1, n = len(products) > 0, in lexicographic
    order, with whether it holds; f is one list, reused.  Labels run over
    0..width-1, or with growth over restricted growth strings.  Once i has
    its label, each (x, y, x*y) of products[i] reads the flat cell
    f(x)*width + f(y): a -1 there takes f(x*y) until i is relabelled, any
    other value must equal it.  At its first failing product a prefix is
    dropped, or with every walked on unchecked and yielded as failing.
    Depth first with an explicit stack, so any n fits."""
    f, stack, last = [0] * len(products), [], len(products) - 1
    i, v, end, ok, done, completed = 0, -1, 1 if growth else width, True, [], products[0]
    leaf = last == 0
    while True:
        if done:
            for c in done:
                cells[c] = -1
            done = []
        v += 1
        if v == end:
            if not stack:
                return
            i, leaf = i - 1, False
            v, end, ok, done, completed = stack.pop()
            continue
        f[i] = v
        holds = ok
        if ok:
            for x, y, xy in completed:
                c = f[x] * width + f[y]
                old = cells[c]
                if old < 0:
                    cells[c] = f[xy]
                    done.append(c)
                elif old != f[xy]:
                    holds = False
                    break
            if not (holds or every):
                continue
        if leaf:
            yield f, holds
        else:
            stack.append((v, end, ok, done, completed))
            i += 1
            if growth and v + 2 > end:
                end = v + 2
            v, ok, done, completed, leaf = -1, holds, [], products[i], i == last


def enumerate_congruences(r: Table) -> list[tuple[Partition, CongruenceClass]]:
    """Every partition of the elements with its classification, in
    restricted-growth-string order: _labellings over growth strings,
    learning the one block table, so partitions that share a prefix share
    the block cells it decides.  A conflict makes the whole subtree
    Neither; every other leaf is Both, since respecting * decides *' on a
    finite rack."""
    if r.order > MAX_CONGRUENCE_ORDER:
        raise ValueError(
            f"order {r.order} > {MAX_CONGRUENCE_ORDER}: partition count is Bell-number growth"
        )
    rows = _rack_rows(r)
    n = len(rows)
    partition = Partition._new
    return [(partition(tuple(f)), _BY_PRIMARY[holds]) for f, holds
            in _labellings(_products_by_last(rows), [-1] * (n * n), n, True, True)]


def congruences_report(r: Table) -> list[dict]:
    """JSON-ready report: [{"blocks": [[..]], "class": "Both"}, ...]."""
    return [
        {"blocks": [list(b) for b in p.blocks()], "class": cls.value}
        for p, cls in enumerate_congruences(r)
    ]


# ---------------------------------------------------------------------------
# subracks and homomorphisms

def is_subrack(r: Table, subset) -> bool:
    """Closure of a nonempty subset S under both rack operations.  * alone
    decides: each S_y, y in S, maps the finite S one-to-one into S, so onto S."""
    sub = set(subset)
    if not sub:
        raise ValueError("subrack test requires a nonempty subset")
    if any(not 0 <= x < r.order for x in sub):
        raise ValueError("subset contains out-of-range indices")
    _permutation_columns(r.rows)
    return all(r.rows[x][y] in sub for x in sub for y in sub)


class FiniteMap(Record):
    """Function between index sets, as an image array."""

    __slots__ = ("domain_order", "codomain_order", "image")

    def __new__(cls, domain_order: int, codomain_order: int, image: tuple[int, ...]):
        image = tuple(image)
        if len(image) != domain_order:
            raise ValueError("image length != domain order")
        for v in image:
            if type(v) is not int:
                raise ValueError(f"image entry {_quoted(v)} is not an int")
        if any(not 0 <= v < codomain_order for v in image):
            raise ValueError("image entry outside codomain")
        return cls._new(domain_order, codomain_order, image)

    def __call__(self, x: int) -> int:
        return self.image[x]


def is_homomorphism(f: FiniteMap, r: Table, s: Table) -> bool:
    """Whether f respects the primary operation on all pairs, decided by
    tables._homomorphic; ValueError unless both tables are right
    invertible, whatever the map.

    Between right-invertible tables such an f respects the inverse
    operation too: f(x *' y) * f(y) = f((x *' y) * y) = f(x), so
    f(x *' y) = f(x) *' f(y).
    """
    if f.domain_order != r.order or f.codomain_order != s.order:
        raise ValueError("map dimensions do not match the tables")
    _permutation_columns(r.rows)
    _permutation_columns(s.rows)
    return _homomorphic(r.rows, s.rows, (f.image,))


def find_homomorphisms(r: Table, s: Table) -> list[FiniteMap]:
    """Every homomorphism, in lexicographic order of images; ValueError
    unless both tables are right invertible.  _labellings over images,
    with s's table as the cells: once i has its image, the products of r
    completed at i are checked, and a prefix that fails is dropped."""
    _permutation_columns(r.rows)
    _permutation_columns(s.rows)
    m, cells = s.order, [v for row in s.rows for v in row]
    return [FiniteMap._new(r.order, m, tuple(f)) for f, _ in
            _labellings(_products_by_last(r.rows), cells, m, False, False)]


def kernel_partition(f: FiniteMap, r: Table, s: Table) -> Partition:
    """Partition of the domain into fibres of f; always a full congruence."""
    if not is_homomorphism(f, r, s):
        raise ValueError("kernel requires a homomorphism")
    return Partition(f.image)


def first_isomorphism_check(f: FiniteMap, r: Table, s: Table) -> bool:
    """Check that the quotient by the kernel of f is isomorphic to the
    image of f, via the induced map on blocks."""
    return _first_isomorphism(f, r, s, kernel_partition(f, r, s))


def _first_isomorphism(f: FiniteMap, r: Table, s: Table, ker: Partition) -> bool:
    """first_isomorphism_check for an f already known to be a
    homomorphism, whose kernel is ker: the induced map psi([x]) = f(x),
    read off the least member of each block, agrees with f on every x,
    is one-to-one, and is a homomorphism from the quotient into s, so an
    isomorphism onto the image of f."""
    q = quotient(r, ker)
    psi = tuple(f.image[b[0]] for b in q.blocks)
    return (
        all(psi[b] == v for b, v in zip(ker.block_of, f.image))
        and len(set(psi)) == len(psi)
        and _homomorphic(q.table.rows, s.rows, (psi,))
    )
