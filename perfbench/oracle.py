"""Independent degree calculator and statement evaluator.

This module does not import fuzzydb.  It computes every degree from the
generator's cell models (gen.py) and its own catalog model, by the paper's
rules:

* UNKNOWN on the cell gives 1 and wins over UNDEFINED; UNDEFINED and NULL
  give 0.
* Ordered values compare by sup-min of their trapezoids.  The closed form
  here works on alpha-cuts: the cut of (a, b, c, d) at level t is
  [a + t(b - a), d - t(d - c)], and the degree is the highest t at which the
  two cuts still meet.
* Scalar values compare by max-min through the column's similarity table.

Statements are described by Stmt, which also renders the FSQL text, so the
expected result is derived from the description and not from the program.
"""

from __future__ import annotations

import itertools

from gen import CatalogModel, Column, fmt

EPS = 1e-9


def corners(cell, col: Column):
    """Trapezoid corners of an ordered cell model or operand."""
    if not isinstance(cell, tuple):
        return (cell, cell, cell, cell)
    kind = cell[0]
    if kind == "crisp":
        x = cell[1]
        return (x, x, x, x)
    if kind == "label":
        return col.labels[cell[1]]
    if kind == "interval":
        return (cell[1], cell[1], cell[2], cell[2])
    if kind == "approx":
        c, m = cell[1], cell[2]
        return (c - m, c, c, c + m)
    if kind == "trap":
        return cell[1:]
    raise ValueError(f"no trapezoid form for {cell!r}")


def sup_min(t, u) -> float:
    """sup_x min(mu_t(x), mu_u(x)) for trapezoids t and u given as corner tuples.

    The cuts meet at level h when the left end of each cut lies at or before
    the right end of the other: x.a + h (x.b - x.a) <= y.d - h (y.d - y.c) for
    (x, y) = (t, u) and (u, t).  Each is linear in h.
    """
    best = 1.0
    for x, y in ((t, u), (u, t)):
        gap = y[3] - x[0]
        slope = (x[1] - x[0]) + (y[3] - y[2])
        if slope > 0:
            best = min(best, gap / slope)
        elif gap < 0:
            return 0.0
    return max(best, 0.0)


def similarity(col: Column, e: str, f: str) -> float:
    if e.casefold() == f.casefold():
        return 1.0
    return col.sim.get(frozenset((e, f)), 0.0)


def max_min(pairs_a, pairs_b, col: Column) -> float:
    return max(min(p, q, similarity(col, e, f)) for p, e in pairs_a for q, f in pairs_b)


def degree(cell, operand, col: Column) -> float:
    """Degree to which a cell model equals an operand (a number or a label name)."""
    kind = cell[0] if isinstance(cell, tuple) else None
    if kind == "unknown":
        return 1.0
    if kind in ("undefined", "null"):
        return 0.0
    if col.ftype == 3:
        return max_min(cell[1], ((1.0, operand),), col)
    target = ("label", operand) if isinstance(operand, str) else ("crisp", float(operand))
    return sup_min(corners(cell, col), corners(target, col))


# -- statements ----------------------------------------------------------------


def cond(column, operand, thold=None):
    return ("cond", column, operand, thold)


def all_of(*children):
    return ("and", children)


def any_of(*children):
    return ("or", children)


class Stmt:
    """One FSQL statement: table, output items, filter tree and output format.

    items are 'column', 'CDEG(column)' or '%' (the table wildcard); the first
    item is the row key or '%', so every output row names its row.
    """

    def __init__(self, table, items, where, fmt="table", default_threshold=1.0):
        self.table = table
        self.items = tuple(items)
        self.where = where
        self.fmt = fmt
        self.default_threshold = default_threshold
        self.text = f"SELECT {', '.join(self._item_text(i) for i in self.items)} FROM {table}" + (
            f" WHERE {self._tree_text(where, top=True)}" if where else ""
        )

    def _item_text(self, item):
        return f"{self.table}.%" if item == "%" else item

    def _tree_text(self, node, top=False):
        if node[0] == "cond":
            _, column, operand, thold = node
            op = f"${operand}" if isinstance(operand, str) else fmt(operand)
            return f"{column} FEQ {op}" + ("" if thold is None else f" THOLD {fmt(thold)}")
        joiner = " AND " if node[0] == "and" else " OR "
        text = joiner.join(self._tree_text(child) for child in node[1])
        return text if top else f"({text})"

    def conditions(self):
        out = []

        def walk(node):
            if node[0] == "cond":
                out.append(node)
            else:
                for child in node[1]:
                    walk(child)

        if self.where:
            walk(self.where)
        return out

    def threshold(self, node) -> float:
        return self.default_threshold if node[3] is None else node[3]

    def with_raised_threshold(self, index: int, step: float) -> "Stmt":
        """The same statement with condition index's THOLD raised by step (at most 1)."""
        counter = itertools.count()

        def walk(node):
            if node[0] == "cond":
                if next(counter) == index:
                    return node[:3] + (min(1.0, round(self.threshold(node) + step, 6)),)
                return node
            return (node[0], tuple(walk(child) for child in node[1]))

        return Stmt(self.table, self.items, walk(self.where), self.fmt, self.default_threshold)

    def outputs(self, cat: CatalogModel):
        """Expected output columns: ('col', schema index, header) or ('cdeg', condition indexes, header)."""
        cols = cat.tables[self.table]
        conds = self.conditions()
        out = []
        for item in self.items:
            if item == "%":
                out.extend(("col", i, c.name) for i, c in enumerate(cols))
                out.extend(("cdeg", (k,), f"CDEG({c[1]})") for k, c in enumerate(conds))
            elif item.startswith("CDEG("):
                name = item[5:-1]
                out.append(("cdeg", tuple(k for k, c in enumerate(conds) if c[1] == name), f"CDEG({name})"))
            else:
                i = [c.name for c in cols].index(item)
                out.append(("col", i, cols[i].name))
        return out


def _satisfied(node, degrees, thresholds, shift) -> bool:
    if node[0] == "cond":
        k = thresholds[id(node)]
        return degrees[k[0]] + shift >= k[1]
    test = all if node[0] == "and" else any
    return test(_satisfied(child, degrees, thresholds, shift) for child in node[1])


def evaluate(stmt: Stmt, rows, cat: CatalogModel):
    """Per row: (row, keep, degrees), keep True/False, or None when a degree
    within EPS of its threshold could decide the row either way."""
    cols = cat.tables[stmt.table]
    position = {c.name: i for i, c in enumerate(cols)}
    conds = stmt.conditions()
    slots = [(position[c[1]], c[2], cols[position[c[1]]]) for c in conds]
    thresholds = {id(c): (k, stmt.threshold(c)) for k, c in enumerate(conds)}
    out = []
    for row in rows:
        degrees = [degree(row[slot], operand, col) for slot, operand, col in slots]
        if stmt.where is None:
            keep = True
        else:
            high = _satisfied(stmt.where, degrees, thresholds, EPS)
            low = _satisfied(stmt.where, degrees, thresholds, -EPS)
            keep = high if high == low else None
        out.append((row, keep, degrees))
    return out

