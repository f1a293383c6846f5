"""The two-sided congruence classification that rackq replaced, kept as
the reference for the search by `*` alone.

Here every partition is checked on both operations, the inverse table
built from the columns, so the finite theorem (on a finite rack a
relation respects `*` exactly when it respects `*'`) is checked rather
than assumed.
"""

from rackq import congruence as cg
from rackq import tables as tb


def rack_tables(r):
    """Rows of the rack r and of its inverse operation."""
    return tb._rack_rows(r), tb.inverse_table(r).rows


def classify(rows, inv_rows, p):
    """(class, cells): the classification of p on both operations, with
    the primary block cells when p respects the primary one (else None)."""
    blk, k = p.block_of, p.num_blocks
    cells = cg._induced_cells(rows, blk, k)[0]
    left = cg._induced_cells(inv_rows, blk, k)[1] is None
    return tb._CLASS_OF[cells is not None, left], cells


def search(r):
    """Every partition of the elements of the rack r with its class, in
    restricted-growth-string order: a depth-first search that keeps one
    block table per operation and stops filling the table of an
    operation in a subtree where it conflicts."""
    rows, inv_rows = rack_tables(r)
    n = len(rows)
    right_products, left_products = cg._products_by_last(rows), cg._products_by_last(inv_rows)
    right_cells, left_cells = [-1] * (n * n), [-1] * (n * n)
    blk = [0] * n
    out = []

    def fill(products, cells, done):
        for x, y, xy in products:
            c = blk[x] * n + blk[y]
            v = blk[xy]
            old = cells[c]
            if old < 0:
                cells[c] = v
                done.append(c)
            elif old != v:
                return False
        return True

    def walk(i, top, right, left):
        for v in range(top + 2):
            blk[i] = v
            right_done, left_done = [], []
            r_ok = right and fill(right_products[i], right_cells, right_done)
            l_ok = left and fill(left_products[i], left_cells, left_done)
            if i + 1 == n:
                out.append((cg.Partition._new(tuple(blk)), tb._CLASS_OF[r_ok, l_ok]))
            else:
                walk(i + 1, max(top, v), r_ok, l_ok)
            for c in right_done:
                right_cells[c] = -1
            for c in left_done:
                left_cells[c] = -1

    walk(0, -1, True, True)
    return out
