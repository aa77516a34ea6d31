"""Seeded input generator: catalog, tables and the model of every cell.

The generator writes the catalog TSV files and the table CSV files as text of
its own making, and keeps for every cell a small tuple (the cell model) that
the oracle and the round-trip checks read.  It imports nothing from fuzzydb.

Cell models:

    ('crisp', x)  ('label', name)  ('interval', lo, hi)  ('approx', c, m)
    ('trap', a, b, c, d)           ordered (type 2) columns
    ('simple', ((p, e),))  ('dist', ((p, e), ...))   scalar (type 3) columns
    ('unknown',)  ('undefined',)  ('null',)          either fuzzy type
    a float or a str                                 precise (type 1) columns

Every number is a multiple of 0.25 and every degree has one decimal, so the
storage codec's arithmetic is exact and the expected text is unambiguous.

Regenerate the inputs of one workload into a directory with

    python3 perfbench/gen.py --workload scan --seed 1 --out perfbench/work/inputs
"""

from __future__ import annotations

import argparse
import os
import random

# The catalog (labels, similarity) is fixed; only the table data follows the
# run's seed, so selectivities stay put from one seed to the next.
CATALOG_SEED = 2502
LABELS_PER_COLUMN = 12
DOMAIN_SIZE = 40
SIMILAR_PAIR_SHARE = 0.12

ORDERED_MIX = (
    ("crisp", 0.30), ("label", 0.20), ("interval", 0.15), ("approx", 0.12),
    ("trap", 0.13), ("unknown", 0.04), ("undefined", 0.03), ("null", 0.03),
)
SCALAR_MIX = (("simple", 0.45), ("dist", 0.45), ("unknown", 0.04), ("undefined", 0.03), ("null", 0.03))
DIST_LENGTHS = (1, 2, 3, 4)
PRINT_KINDS = ("Offset", "Huecograbado", "Flexografia")


class Column:
    """One catalog column as the generator and the oracle see it."""

    def __init__(self, table, name, ftype, domain="numeric", units="", span=None, prefix=None):
        self.table = table
        self.name = name
        self.ftype = ftype
        self.domain = domain
        self.units = units
        self.span = span          # (lo, hi) of an ordered column
        self.prefix = prefix      # label / element name prefix
        self.labels = {}          # ordered: name -> corners; scalar: name -> None
        self.sim = {}             # scalar: frozenset({e, f}) -> degree


# table -> columns in schema order; the first column is the row key.
SCHEMA = {
    "cartulina": (
        ("cod_carti", 1, "numeric", "", None, None),
        ("cod_capa", 1, "numeric", "", None, None),
        ("impresion", 1, "scalar", "", None, None),
        ("tono_cara", 3, "scalar", "", None, "tono"),
        ("tono_reverso", 3, "scalar", "", None, "tono"),
    ),
    "pilas": (
        ("cod_pila", 1, "numeric", "", None, None),
        ("formato_largo", 2, "numeric", "cm", (0, 240), "largo"),
        ("formato_ancho", 2, "numeric", "cm", (0, 240), "ancho"),
        ("estado", 3, "scalar", "", None, "def"),
    ),
    "rollos": (
        ("cod_rollo", 1, "numeric", "", None, None),
        ("formato_largo", 2, "numeric", "m", (0, 240), "largo"),
        ("formato_ancho", 2, "numeric", "cm", (0, 240), "ancho"),
        ("altura", 2, "numeric", "cm", (0, 300), "alto"),
        ("peso", 2, "numeric", "kg", (0, 1200), "peso"),
        ("estado", 3, "scalar", "", None, "def"),
    ),
    "personas": (
        ("nombre", 1, "scalar", "", None, None),
        ("edad", 2, "numeric", "years", (0, 96), "edad"),
        ("pelo", 3, "scalar", "", None, "pelo"),
    ),
}


def fmt(x) -> str:
    """Decimal text of a number: integers without '.0', others shortest-repr."""
    x = float(x)
    return str(int(x)) if x == int(x) else repr(x)


class CatalogModel:
    """The generator's own record of the catalog: labels and similarity."""

    def __init__(self):
        self.tables = {}
        rng = random.Random(CATALOG_SEED)
        for table, cols in SCHEMA.items():
            self.tables[table] = []
            for name, ftype, domain, units, span, prefix in cols:
                col = Column(table, name, ftype, domain, units, span, prefix)
                if ftype == 2:
                    lo, hi = span
                    w = (hi - lo) / LABELS_PER_COLUMN
                    for i in range(LABELS_PER_COLUMN):
                        left, right = lo + i * w, lo + (i + 1) * w
                        col.labels[f"{prefix}{i + 1:02d}"] = (
                            left - w / 4, left + w / 4, right - w / 4, right + w / 4
                        )
                elif ftype == 3:
                    names = [f"{prefix}{i + 1:02d}" for i in range(DOMAIN_SIZE)]
                    col.labels = dict.fromkeys(names)
                    for i in range(DOMAIN_SIZE):
                        for j in range(i + 1, DOMAIN_SIZE):
                            if rng.random() < SIMILAR_PAIR_SHARE:
                                col.sim[frozenset((names[i], names[j]))] = rng.randint(1, 9) / 10
                self.tables[table].append(col)

    def column(self, table, name) -> Column:
        for col in self.tables[table]:
            if col.name == name:
                return col
        raise KeyError(f"{table}.{name}")

    def copy(self) -> "CatalogModel":
        new = CatalogModel.__new__(CatalogModel)
        new.tables = {}
        for table, cols in self.tables.items():
            new.tables[table] = []
            for col in cols:
                c = Column(col.table, col.name, col.ftype, col.domain, col.units, col.span, col.prefix)
                c.labels = dict(col.labels)
                c.sim = dict(col.sim)
                new.tables[table].append(c)
        return new

    def write(self, directory) -> None:
        """Write attributes.tsv, labels.tsv and similarity.tsv."""
        os.makedirs(directory, exist_ok=True)
        cols = [col for cols in self.tables.values() for col in cols]
        with open(os.path.join(directory, "attributes.tsv"), "w", encoding="utf-8") as f:
            f.write("table\tcolumn\ttype\tdomain\tunits\n")
            for c in cols:
                f.write(f"{c.table}\t{c.name}\t{c.ftype}\t{c.domain}\t{c.units}\n")
        with open(os.path.join(directory, "labels.tsv"), "w", encoding="utf-8") as f:
            f.write("table\tcolumn\tid\tname\ta\tb\tc\td\n")
            for c in cols:
                for i, (name, corners) in enumerate(c.labels.items(), start=1):
                    text = "\t".join(fmt(x) for x in corners) if corners else "\t\t\t"
                    f.write(f"{c.table}\t{c.name}\t{i}\t{name}\t{text}\n")
        with open(os.path.join(directory, "similarity.tsv"), "w", encoding="utf-8") as f:
            f.write("table\tcolumn\tname1\tname2\tdegree\n")
            for c in cols:
                names = list(c.labels)
                for i, e in enumerate(names):
                    for g in names[i + 1:]:
                        s = c.sim.get(frozenset((e, g)))
                        if s:
                            f.write(f"{c.table}\t{c.name}\t{e}\t{g}\t{fmt(s)}\n")


def _pick(rng, mix):
    r = rng.random()
    for kind, share in mix:
        r -= share
        if r < 0:
            return kind
    return mix[0][0]


def _grid(rng, lo, hi) -> float:
    """A multiple of 0.25 in [lo, hi]."""
    return rng.randint(int(lo * 4), int(hi * 4)) / 4


def ordered_cell(rng, col: Column):
    kind = _pick(rng, ORDERED_MIX)
    lo, hi = col.span
    w = (hi - lo) / LABELS_PER_COLUMN
    if kind == "crisp":
        return ("crisp", _grid(rng, lo, hi))
    if kind == "label":
        return ("label", rng.choice(list(col.labels)))
    if kind == "interval":
        a = _grid(rng, lo, hi)
        return ("interval", a, a + _grid(rng, 0.25, 1.5 * w))
    if kind == "approx":
        return ("approx", _grid(rng, lo, hi), _grid(rng, 0.25, w / 2))
    if kind == "trap":
        a = _grid(rng, lo, hi)
        b = a + _grid(rng, 0, w / 2)   # zero-width edges give vertical sides
        c = b + _grid(rng, 0, w)
        return ("trap", a, b, c, c + _grid(rng, 0, w / 2))
    return (kind,)


def scalar_cell(rng, col: Column):
    kind = _pick(rng, SCALAR_MIX)
    if kind == "simple":
        return ("simple", ((rng.randint(1, 10) / 10, rng.choice(list(col.labels))),))
    if kind == "dist":
        elements = rng.sample(list(col.labels), rng.choice(DIST_LENGTHS))
        return ("dist", tuple((rng.randint(1, 10) / 10, e) for e in elements))
    return (kind,)


def cell_for(rng, col: Column, row_key):
    if col.ftype == 2:
        return ordered_cell(rng, col)
    if col.ftype == 3:
        return scalar_cell(rng, col)
    if col.name in ("cod_carti", "cod_pila", "cod_rollo"):
        return float(row_key)
    if col.name == "nombre":
        return f"p{row_key:05d}"
    if col.name == "cod_capa":
        return float(rng.randint(10, 60))
    return rng.choice(PRINT_KINDS)


def make_rows(cat: CatalogModel, table: str, n: int, seed) -> list:
    """n rows of table with keys 1..n, seeded by (seed, table)."""
    rng = random.Random(f"{seed}:{table}")
    cols = cat.tables[table]
    return [tuple(cell_for(rng, col, k) for col in cols) for k in range(1, n + 1)]


def update_batch(cat: CatalogModel, table: str, rows: list, share: float, seed) -> list:
    """A copy of rows with a seeded batch (share of the rows) given new fuzzy cells.

    Every updated row gets a cell that renders differently in each fuzzy
    column, so a reader that misses the update shows different output.
    """
    rng = random.Random(f"{seed}:{table}:update")
    cols = cat.tables[table]
    new = list(rows)
    for i in sorted(rng.sample(range(len(rows)), max(1, int(len(rows) * share)))):
        cells = list(rows[i])
        for j, col in enumerate(cols):
            if col.ftype == 1:
                continue
            old = cells[j]
            while render(cells[j]) == render(old):
                cells[j] = cell_for(rng, col, i + 1)
        new[i] = tuple(cells)
    return new


# -- text forms ----------------------------------------------------------------


def csv_text(cell) -> str:
    """The stored CSV text of a cell, as the README's cell syntax gives it."""
    if not isinstance(cell, tuple):
        return cell if isinstance(cell, str) else fmt(cell)
    kind = cell[0]
    if kind == "unknown":
        return "0"
    if kind == "undefined":
        return "1"
    if kind == "null":
        return "2"
    if kind == "crisp":
        return f"3;{fmt(cell[1])};;;"
    if kind == "label":
        return f"4;{cell[1]};;;"
    if kind == "interval":
        return f"5;{fmt(cell[1])};;;{fmt(cell[2])}"
    if kind == "approx":
        c, m = cell[1], cell[2]
        return f"6;{fmt(c)};{fmt(c - m)};{fmt(c + m)};{fmt(m)}"
    if kind == "trap":
        a, b, c, d = cell[1:]
        return f"7;{fmt(a)};{fmt(b - a)};{fmt(c - d)};{fmt(d)}"
    code = "3" if kind == "simple" else "4"
    return ";".join([code] + [f"{fmt(p)};{e}" for p, e in cell[1]])


def render(cell) -> str:
    """The text format_result shows for a cell."""
    if not isinstance(cell, tuple):
        return cell if isinstance(cell, str) else fmt(cell)
    kind = cell[0]
    if kind in ("unknown", "undefined", "null"):
        return kind.upper()
    if kind == "crisp":
        return fmt(cell[1])
    if kind == "label":
        return f"${cell[1]}"
    if kind == "interval":
        return f"[{fmt(cell[1])}, {fmt(cell[2])}]"
    if kind == "approx":
        return f"#{fmt(cell[1])}~{fmt(cell[2])}"
    if kind == "trap":
        return "$[" + ", ".join(fmt(x) for x in cell[1:]) + "]"
    return ", ".join(f"{fmt(p)}/{e}" for p, e in cell[1])


def write_table(cat: CatalogModel, table: str, rows: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(col.name for col in cat.tables[table]) + "\n")
        for row in rows:
            # no cell holds a comma or a quote, so plain joining is valid CSV
            f.write(",".join(csv_text(cell) for cell in row) + "\n")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args(argv)
    workloads.WORKLOADS[args.workload](args.seed, args.out)
    print(f"wrote the {args.workload} inputs for seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
