"""Tests of the benchmark's own oracle and generator; they import no fuzzydb.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import random

import gen
import oracle
from oracle import Stmt, all_of, any_of, cond


def membership(t, x):
    a, b, c, d = t
    if b <= x <= c:
        return 1.0
    if x < a or x > d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def random_trapezoid(rng):
    """Corners on a 0.25 grid in [0, 20]; zero-width edges and points included."""
    a = rng.randint(0, 40) / 4
    b = a + rng.choice((0, 0, rng.randint(1, 12) / 4))
    c = b + rng.choice((0, rng.randint(1, 12) / 4))
    return (a, b, c, c + rng.choice((0, 0, rng.randint(1, 12) / 4)))


def test_closed_form_matches_dense_grid_sup_min():
    rng = random.Random(7)
    step = 0.25 / 64  # the grid holds every corner exactly
    for _ in range(300):
        t, u = random_trapezoid(rng), random_trapezoid(rng)
        lo, hi = min(t[0], u[0]), max(t[3], u[3])
        xs = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        grid = max(min(membership(t, x), membership(u, x)) for x in xs)
        closed = oracle.sup_min(t, u)
        # the crossing may fall between grid points; edge slopes are at most 4
        assert grid - 1e-12 <= closed <= grid + 4 * step, (t, u, closed, grid)
        assert closed == oracle.sup_min(u, t)


def test_closed_form_cases():
    assert oracle.sup_min((0, 10, 20, 30), (15, 15, 15, 15)) == 1.0
    assert oracle.sup_min((0, 10, 20, 30), (25, 25, 25, 25)) == 0.5
    assert oracle.sup_min((0, 10, 20, 30), (30, 30, 30, 30)) == 0.0
    assert oracle.sup_min((0, 0, 1, 1), (1, 1, 1, 1)) == 1.0      # closed interval edge
    assert oracle.sup_min((0, 0, 1, 1), (1.5, 1.5, 2, 2)) == 0.0
    assert oracle.sup_min((0, 1, 2, 3), (3, 4, 5, 6)) == 0.0      # supports only touch
    assert oracle.sup_min((0, 2, 2, 4), (2, 4, 4, 6)) == 0.5


def test_special_values_and_similarity():
    cat = gen.CatalogModel()
    edad = cat.column("personas", "edad")
    pelo = cat.column("personas", "pelo")
    for col, operand in ((edad, 30), (pelo, "pelo01")):
        assert oracle.degree(("unknown",), operand, col) == 1.0
        assert oracle.degree(("undefined",), operand, col) == 0.0
        assert oracle.degree(("null",), operand, col) == 0.0
    pair, s = next(iter(pelo.sim.items()))
    e, f = sorted(pair)
    assert oracle.degree(("simple", ((0.9, e),)), f, pelo) == min(0.9, s)
    assert oracle.degree(("dist", ((0.3, e), (0.6, f))), f, pelo) == 0.6
    assert oracle.degree(("label", "edad04"), "edad04", edad) == 1.0
    assert oracle.degree(("approx", 30, 4), 32, edad) == 0.5


def test_cell_text_follows_the_storage_syntax():
    assert gen.csv_text(("trap", 85, 95, 110, 120)) == "7;85;10;-10;120"
    assert gen.csv_text(("approx", 75, 5)) == "6;75;70;80;5"
    assert gen.csv_text(("interval", 60, 70.5)) == "5;60;;;70.5"
    assert gen.csv_text(("dist", ((0.7, "sucio"), (0.5, "rayas")))) == "4;0.7;sucio;0.5;rayas"
    assert gen.render(("trap", 85, 95, 110, 120)) == "$[85, 95, 110, 120]"
    assert gen.render(("approx", 75, 5)) == "#75~5"
    assert gen.render(("dist", ((0.7, "sucio"), (0.5, "rayas")))) == "0.7/sucio, 0.5/rayas"


def test_statement_text_and_threshold_ambiguity():
    stmt = Stmt("personas", ["nombre", "CDEG(edad)"],
                all_of(any_of(cond("edad", 30, 0.5), cond("edad", "edad04")), cond("pelo", "pelo02", 0)))
    assert stmt.text == ("SELECT nombre, CDEG(edad) FROM personas WHERE "
                         "(edad FEQ 30 THOLD 0.5 OR edad FEQ $edad04) AND pelo FEQ $pelo02 THOLD 0")
    cat = gen.CatalogModel()
    assert cat.column("personas", "edad").labels["edad04"] == (22, 26, 30, 34)
    rows = [("a", ("crisp", 24.0), ("null",)),       # degree 0.5, exactly the THOLD
            ("b", ("crisp", 40.0), ("null",))]
    single = Stmt("personas", ["nombre"], cond("edad", "edad04", 0.5))
    assert [keep for _, keep, _ in oracle.evaluate(single, rows, cat)] == [None, False]
    assert single.with_raised_threshold(0, 0.3).text.endswith("THOLD 0.8")
