"""The canonical-form search and the rack enumeration.

Only callers of canonical_form and enumerate_racks run this code, so it
lives apart from the table kernels: rackq.tables forwards these names
and imports this module the first time one of them is read.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .tables import MAX_ENUM_ORDER, Table, _check_order, _homomorphic, _picker, _quoted, invert_perm


def _twins(rows, cols, c, d) -> bool:
    """Whether c and d are twins: (c d) is an automorphism, which
    _homomorphic decides.  Conjugating (c d) by (d e) gives (c e), so being
    twins is an equivalence: a twin of a twin is a twin, and one check
    against one member of each class found so far settles an element."""
    s = list(range(len(rows)))
    s[c], s[d] = d, c
    # column c first: it settles most pairs that are not twins
    return tuple([s[v] for v in cols[c]]) == itemgetter(*s)(cols[d]) and _homomorphic(rows, rows, (s,))


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
      are the a = a*a with the most fixers y (a*y = a), when there is an
      a = a*a: row 0 from e_0 = a opens with exactly one 0 per fixer.

    A branch is cut when a row read so far exceeds the same part of the
    best table found.  An automorphism that fixes every labelled element
    at a branch point also keeps every cell, so it maps the subtree of
    one member onto the subtree of its image, with the same tables.  Two
    kinds are used (McKay and Piperno, Practical graph isomorphism II,
    2014): the transposition of twins (see _twins), checked only between
    the members of a branch point, so only one member of each twin class
    is tried; and, when a branch reads a table equal to the best, the map
    from its labelling to the best one, which skips later members that it
    (with those found before) takes to a member already tried.
    """
    n = len(rows)
    if n == 1:
        return rows
    best = None  # the least table so far, as one flat tuple
    best_elem = None  # elem of the labelling that gave best
    cert = []  # entries read on the current branch
    cols = list(zip(*rows))
    twin_of = list(range(n))  # each element, or a twin of it found so far
    twins = {}  # _twins of each pair of twin_of entries checked so far
    auts = []  # automorphisms found by reading a table equal to best

    def search(i, y, tied, label, elem, lo_of, cells):
        # Read on from entry (i, y); tied: cert equals the start of best.
        nonlocal best, best_elem
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
                if lo == least == 0:
                    # the root, among idempotents: keep the most fixers
                    most = max([rows[c].count(c) for c in cands])
                    cands = [c for c in cands if rows[c].count(c) == most]
                if len(cands) > 1:
                    # the first member of each twin class in the given order
                    given, cands = cands, []
                    for c in given:
                        for d in cands:
                            pair = (twin_of[d], twin_of[c])
                            if pair not in twins:
                                twins[pair] = pair[0] == pair[1] or _twins(rows, cols, *pair)
                            if twins[pair]:
                                twin_of[c] = twin_of[d]
                                break
                        else:
                            cands.append(c)
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
    return Table._new(_canonical_rows(m.rows))


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

    The search sets S_0 only to one of _roots: one permutation r per
    pair (cycle type, length of the cycle through 0).  Relabelling by s
    puts s S_y s^-1 at s(y).  A permutation p is s r s^-1 for some s
    fixing 0 exactly when 0 lies in cycles of the same length in p and
    in r, so relabelling a rack with S_0 = p by s^-1 gives one with
    S_0 = r: every rack is a relabelling of one found.  The labelled
    racks are the relabellings of the racks found under r by one s
    fixing 0 per conjugate s r s^-1, each arising exactly once: S_0 of
    the result fixes the coset of s, and then the rack found is the
    result relabelled by s^-1.  So no set of tables seen is kept.

    With up_to_iso, keeps one table per isomorphism class: the
    lexicographically least relabelling, which is canonical_form of each
    member.  Every class has a member among the racks found, so the
    classes are the relabelling orbits of those racks.  Relabelling by
    p is one composition lookup per column, so each found rack not yet
    covered by an orbit gives one class, its orbit built as index
    tuples.  Output is sorted by table rows, so the order is deterministic.
    """
    _check_order(n)
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise ValueError(f"order {_quoted(n)} outside supported range 1..{MAX_ENUM_ORDER}")
    for name, flag in (("quandles_only", quandles_only), ("up_to_iso", up_to_iso)):
        if type(flag) is not bool:
            raise ValueError(f"{name} {_quoted(flag)} is not a bool")
    perms = list(itertools.permutations(range(n)))
    found = _rack_columns(perms, quandles_only, up_to_iso)
    # Each index tuple becomes its rows in place once the composition table
    # is freed; tables share equal rows (a few hundred distinct rows make
    # up all 1,708 racks of order 5).
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, c in enumerate(found):
        found[i] = tuple([shared.setdefault(row, row) for row in zip(*map(perms.__getitem__, c))])
    found.sort()
    return [Table._new(rows) for rows in found]


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


def _roots(n: int, quandles_only: bool) -> list[tuple[int, ...]]:
    """One permutation of 0..n-1 per pair (cycle type, length of the
    cycle through 0), its cycles laid out from 0, the one through 0
    first and the rest longest first; for quandles, only those that fix 0."""
    def laid_out(start, most):
        # the cycles on start..n-1 as an image list, none longer than most
        if start == n:
            yield []
        for m in range(min(most, n - start), 0, -1):
            for rest in laid_out(start + m, m):
                yield [*range(start + 1, start + m), start, *rest]

    firsts = (1,) if quandles_only else range(1, n + 1)
    roots = [tuple([*range(1, m), 0, *rest]) for m in firsts for rest in laid_out(m, n - m)]
    del laid_out  # it refers to itself through its closure cell; break that cycle
    return roots


def _rack_columns(perms, quandles_only: bool, up_to_iso: bool) -> list[tuple[int, ...]]:
    """The racks of order n as tuples of column indices into perms, the
    n! permutations of 0..n-1 in order; with up_to_iso, the member of
    each relabelling orbit with the least rows.  The search finds only
    the racks whose column S_0 is one of _roots (see enumerate_racks)."""
    n = len(perms[0])
    index = {p: i for i, p in enumerate(perms)}
    inv = [index[invert_perm(p)] for p in perms]
    comp = _composition_table(perms, index)
    roots = [index[p] for p in _roots(n, quandles_only)]
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
        for p in roots if k == 0 else [p for v in images for p in by_image[k][v]]:
            cols[k] = p
            assigned.append(k)
            if close(mark):
                search()
            for c in assigned[mark:]:
                cols[c] = -1
            del assigned[mark:]

    search()
    del search  # it refers to itself through its closure cell; break that cycle
    # relabelling by p puts the conjugate of the column at q(y) at y, q = p^-1
    moves = [(comp[inv[p]], p, perms[inv[p]]) for p in range(len(perms))]
    if not up_to_iso:
        # relabel each rack found under r by one s fixing 0 per conjugate s r s^-1
        transversal = {}
        for r in roots:
            conjugates = {}
            for s in by_image[0][0]:
                conjugates.setdefault(comp[comp[inv[s]][r]][s], moves[s])
            transversal[r] = conjugates.values()
        return [tuple([comp[after[c[j]]][p] for j in q])
                for c in found for after, p, q in transversal[c[0]]]
    covered: set[tuple[int, ...]] = set()
    reps = []
    for c in found:
        if c not in covered:
            orbit = {tuple([comp[after[c[j]]][p] for j in q]) for after, p, q in moves}
            covered |= orbit
            # the member with the least rows
            reps.append(min(orbit, key=lambda d: tuple(zip(*map(perms.__getitem__, d)))))
    return reps
