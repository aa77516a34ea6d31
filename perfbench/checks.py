"""Checks of the program's outputs against the oracle and the generator's model.

Every function returns a list of problems (empty when the output is right).
Program objects are read only through their public fields.
"""

from __future__ import annotations

import csv
import io
import json

import oracle
from gen import CatalogModel, render

MAX_REPORTED = 3


def statement(stmt: oracle.Stmt, result, text: str, csv_out: str, rows, cat: CatalogModel):
    """Check one statement's result, its rendered text and its CSV rendering."""
    problems = []
    outputs = stmt.outputs(cat)
    headers = [o[2] for o in outputs]
    n = len(result.rows)
    if list(result.headers) != headers:
        return [f"headers {result.headers} != {headers}"]
    if result.stats.rows_out != n:
        problems.append(f"rows_out {result.stats.rows_out} but {n} rows")
    problems += formatted(stmt.fmt, text, headers, n)
    parsed = list(csv.reader(io.StringIO(csv_out)))
    if not parsed or parsed[0] != headers or len(parsed) != n + 1:
        return problems + [f"csv output does not parse back to the headers and {n} rows"]

    it = iter(zip(result.rows, parsed[1:]))
    current = next(it, None)
    for row, keep, degrees in oracle.evaluate(stmt, rows, cat):
        if current is not None and current[0][0] == row[0]:
            if keep is False:
                problems.append(f"row {row[0]!r} kept, oracle degrees {degrees}")
            else:
                problems += _row(outputs, row, degrees, *current)
            current = next(it, None)
        elif keep:
            problems.append(f"row {row[0]!r} missing, oracle degrees {degrees}")
        if len(problems) >= MAX_REPORTED:
            return problems
    if current is not None:
        problems.append(f"row {current[0][0]!r} is out of order or not in the table")
    return problems


def _row(outputs, row, degrees, values, texts):
    problems = []
    for (kind, ref, header), value, cell_text in zip(outputs, values, texts):
        if kind == "col":
            if cell_text != render(row[ref]):
                problems.append(f"row {row[0]!r} {header}: {cell_text!r} != {render(row[ref])!r}")
        else:
            want = min(degrees[k] for k in ref)
            if abs(value - want) > oracle.EPS or abs(float(cell_text) - want) > oracle.EPS:
                problems.append(f"row {row[0]!r} {header}: {value!r} != oracle {want!r}")
    return problems


def formatted(fmt: str, text: str, headers, n: int):
    """Shape of a rendered result: table lines and count line, jsonl lines."""
    if fmt == "table":
        lines = text.split("\n")
        tail = "(1 row)" if n == 1 else f"({n} rows)"
        if len(lines) != n + 2 or lines[-1] != tail:
            return [f"table output has {len(lines)} lines ending {lines[-1]!r}, want {n + 2} ending {tail!r}"]
    elif fmt == "jsonl":
        records = [json.loads(line) for line in text.split("\n") if line]
        if len(records) != n or any(list(r) != list(dict.fromkeys(headers)) for r in records):
            return [f"jsonl output has {len(records)} records, want {n} with keys {headers}"]
    return []


def kept_keys(result):
    return [row[0] for row in result.rows]


def raised_threshold(before, after):
    """Raising one condition's THOLD never adds rows."""
    extra = set(kept_keys(after)) - set(kept_keys(before))
    return [f"raising a THOLD added rows {sorted(extra)[:5]}"] if extra else []


def same_cell(value, cell) -> bool:
    """Does a loaded cell equal the generator's model of it?"""
    if not isinstance(cell, tuple):
        return type(value) is type(cell) and value == cell
    kind = value.kind.value
    tag = cell[0]
    if tag in ("unknown", "undefined", "null"):
        return kind == tag
    if tag == "crisp":
        return kind == "crisp" and value.number == cell[1]
    if tag == "label":
        return kind == "label" and value.name == cell[1]
    if tag == "interval":
        return kind == "interval" and (value.low, value.high) == cell[1:]
    if tag == "approx":
        return kind == "approx" and (value.number, value.margin) == cell[1:]
    if tag == "trap":
        return kind == "trapezoid" and value.trap.corners() == cell[1:]
    want = "simple" if tag == "simple" else "poss_dist"
    return kind == want and tuple(value.pairs) == cell[1]


def table(loaded, rows):
    """A loaded table holds exactly the model's rows, cell for cell."""
    if len(loaded.rows) != len(rows):
        return [f"{loaded.name}: {len(loaded.rows)} rows, model has {len(rows)}"]
    problems = []
    for got, want in zip(loaded.rows, rows):
        for value, cell in zip(got, want):
            if not same_cell(value, cell):
                problems.append(f"{loaded.name} row {want[0]!r}: {value!r} != model {cell!r}")
                if len(problems) >= MAX_REPORTED:
                    return problems
    return problems


def catalog(loaded, cat: CatalogModel):
    """A loaded catalog holds the model's labels, corners and similarity degrees."""
    problems = []
    for table_name, cols in cat.tables.items():
        for col in cols:
            attr = loaded.get(table_name, col.name)
            names = [ld.name for ld in attr.labels]
            if names != list(col.labels):
                problems.append(f"{attr.qualified}: labels {names[:4]}... differ from the model")
                continue
            if col.ftype == 2:
                for ld in attr.labels:
                    if ld.trap.corners() != tuple(col.labels[ld.name]):
                        problems.append(f"{attr.qualified}: ${ld.name} corners differ")
            elif col.ftype == 3:
                rel = attr.similarity
                for i, e in enumerate(names):
                    for f in names[i + 1:]:
                        if rel.get(e, f) != col.sim.get(frozenset((e, f)), 0.0):
                            problems.append(f"{attr.qualified}: s({e}, {f}) = {rel.get(e, f)}")
    return problems[:MAX_REPORTED]
