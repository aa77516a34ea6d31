"""The three workloads and the harness that times and checks them.

One closed-loop client: each operation starts after the previous one
returns.  A run repeats whole rounds of the same operations until the timed
operations have taken the requested seconds and the round count supports
the tail percentile.  Checks run between operations and are not timed.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import resource
import statistics

import checks
import gen
import spans
from gen import CatalogModel
from oracle import Stmt, all_of, any_of, cond
from spans import clock


class Run:
    """Timings, counts and check results of one run."""

    def __init__(self, engine, fcatalog, seconds: float, traced: bool):
        self.engine = engine
        self.fcatalog = fcatalog
        self.seconds = seconds
        self.tracer = spans.Tracer({"engine": engine, "catalog": fcatalog}) if traced else None
        self.setup_s = []
        self.latencies = []          # (seconds, traced round?)
        self.rows_in = 0
        self.write_rows = 0
        self.write_s = 0.0
        self.measured = 0.0
        self.attempted = self.failed = self.wrong = 0
        self.expected = {}           # (operation, data version) -> output that passed the checks
        self.bad = set()             # (operation, data version) whose output failed them
        self.varied = set()          # statements whose raised-THOLD variant was run
        self.catalog_lines = {}
        self.messages = []
        self.stmt_id = 0
        self.round_traced = False
        self.rounds = 0

    # -- bookkeeping -------------------------------------------------------

    def fail(self, what: str, problems, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.messages) < 10:
            self.messages.append(f"{what}: {'; '.join(str(p) for p in problems[:3])}")

    @contextlib.contextmanager
    def traced(self, on: bool):
        if on and self.tracer is not None:
            self.tracer.install()
            try:
                yield
            finally:
                self.tracer.uninstall()
        else:
            yield

    @contextlib.contextmanager
    def untraced(self):
        on = self.tracer is not None and self.tracer.installed
        if on:
            self.tracer.uninstall()
        try:
            yield
        finally:
            if on:
                self.tracer.install()

    def _checked(self, key, what, check) -> None:
        """Run check() untraced the first time key is seen; afterwards repeat its verdict."""
        if key in self.bad:
            self.fail(what, ["failed its check earlier in the run"])
        elif key not in self.expected:
            with self.untraced():
                try:
                    problems = check()
                except Exception as exc:  # output too malformed to check is wrong output
                    problems = [f"check raised {exc!r}"]
            if problems:
                self.bad.add(key)
                self.fail(what, problems)
            else:
                self.expected[key] = True

    # -- operations ----------------------------------------------------------

    def setup(self, fn):
        t0 = clock()
        out = fn()
        self.setup_s.append(clock() - t0)
        return out

    def statement(self, key, stmt: Stmt, rows, cat: CatalogModel, catalog, **source) -> None:
        """One statement: run_query plus format_result, timed; checked once per data version."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.stmt = self.stmt_id
        self.stmt_id += 1
        t0 = clock()
        try:
            result = self.engine.run_query(stmt.text, catalog, **source)
            text = self.engine.format_result(result, stmt.fmt)
        except Exception as exc:  # a failed operation is counted and the run goes on
            self.fail(stmt.text, [repr(exc)], wrong=False)
            return
        finally:
            if self.tracer is not None:
                self.tracer.stmt = None
        dt = clock() - t0
        self.latencies.append((dt, self.round_traced))
        self.rows_in += result.stats.rows_in
        self.measured += dt
        seen = self.expected.get(key)
        if seen is not None and key not in self.bad:
            if text != seen:
                self.fail(stmt.text, ["output differs from the checked output of the same data"])
            return

        def check():
            csv_out = text if stmt.fmt == "csv" else self.engine.format_result(result, "csv")
            problems = checks.statement(stmt, result, text, csv_out, rows, cat)
            conds = stmt.conditions()
            if not problems and stmt.text not in self.varied:
                self.varied.add(stmt.text)
                variant = stmt.with_raised_threshold(len(self.varied) % len(conds), 0.3)
                problems = checks.raised_threshold(result, self.engine.run_query(variant.text, catalog, **source))
            return problems

        self._checked(key, stmt.text, check)
        if key in self.expected:
            self.expected[key] = text

    def save_table(self, key, table, path, rows, catalog) -> None:
        """save_table, timed; the file is loaded back and compared with the model once per version."""
        self.attempted += 1
        t0 = clock()
        try:
            self.engine.save_table(table, path)
        except Exception as exc:
            self.fail(f"save_table {table.name}", [repr(exc)], wrong=False)
            return
        dt = clock() - t0
        self.write_s += dt
        self.measured += dt
        self.write_rows += len(table.rows)
        self._checked(key, f"save_table {table.name}",
                      lambda: checks.table(self.engine.load_table(path, table.name, catalog), rows))

    def save_catalog(self, key, catalog, directory, cat: CatalogModel) -> None:
        """save_catalog, timed; loaded back and compared with the model once per version."""
        self.attempted += 1
        t0 = clock()
        try:
            self.fcatalog.save_catalog(catalog, directory)
        except Exception as exc:
            self.fail("save_catalog", [repr(exc)], wrong=False)
            return
        dt = clock() - t0
        self.write_s += dt
        self.measured += dt
        if key not in self.catalog_lines:
            self.catalog_lines[key] = sum(
                _count_lines(os.path.join(directory, name))
                for name in ("attributes.tsv", "labels.tsv", "similarity.tsv")
            )
        self.write_rows += self.catalog_lines[key]
        self._checked(key, "save_catalog", lambda: checks.catalog(self.fcatalog.load_catalog(directory), cat))

    def edit(self, what: str, fn, *args) -> None:
        """A catalog edit (define_label, set_similarity); counted, not timed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:
            self.fail(what, [repr(exc)], wrong=False)

    # -- results -------------------------------------------------------------

    def end_to_end(self, tail_pct: int) -> dict:
        lat = sorted(s for s, _ in self.latencies)
        rank = math.ceil(tail_pct / 100 * len(lat)) - 1
        if len(lat) - rank - 1 < 10:
            raise RuntimeError(f"{len(lat)} statements are too few for a p{tail_pct} tail")
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "stmt_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "stmt_ms_tail": (lat[rank] * 1e3, "ms"),
            "rows_per_s": (self.rows_in / sum(lat), "rows/s"),
            "write_rows_per_s": (self.write_rows / self.write_s, "rows/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        traced = [s for s, on in self.latencies if on]
        untraced = [s for s, on in self.latencies if not on]
        return spans.layer_metrics(self.tracer.spans, statistics.mean(traced), statistics.mean(untraced))


def _count_lines(path) -> int:
    with open(path, "rb") as f:
        return f.read().count(b"\n")


def drive(workload, run: Run) -> None:
    """Prepare, set up, measure whole rounds, finish."""
    # The generator's model of every cell stays alive for the checks.  Frozen,
    # it is left out of the collector's full passes, so those cost what the
    # program's own objects make them cost.
    gc.collect()
    gc.freeze()
    workload.prepare(run)
    with run.traced(True):
        for _ in range(workload.setups):
            run.setup(lambda: workload.setup(run))
    min_rounds = math.ceil(workload.min_samples / workload.statements_per_round)
    # in a traced run odd rounds are traced and even rounds are not, in equal number
    while (run.rounds < min_rounds or run.measured < run.seconds
           or (run.tracer is not None and run.rounds % 2)):
        run.round_traced = run.tracer is not None and run.rounds % 2 == 1
        with run.traced(run.round_traced):
            workload.round(run, run.rounds)
        run.rounds += 1
    run.round_traced = False
    with run.traced(True):
        workload.finish(run)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Generated inputs in workdir: catalog/ and data/ (plus data/versions/)."""

    name = ""
    sizes = {}

    def __init__(self, seed: int, workdir):
        self.cat = CatalogModel()
        self.catalog_dir = os.path.join(workdir, "catalog")
        self.data_dir = os.path.join(workdir, "data")
        self.versions_dir = os.path.join(self.data_dir, "versions")
        os.makedirs(self.versions_dir, exist_ok=True)
        self.cat.write(self.catalog_dir)
        self.rows = {t: gen.make_rows(self.cat, t, n, seed) for t, n in self.sizes.items()}
        for t, rows in self.rows.items():
            gen.write_table(self.cat, t, rows, self.table_path(t))

    def table_path(self, table: str):
        return os.path.join(self.data_dir, table + ".csv")

    def prepare(self, run: Run) -> None:
        pass

    def finish(self, run: Run) -> None:
        pass


class Versioned(Workload):
    """A workload that rewrites tables, alternating each between two seeded versions.

    Version 0 is the generated table; version 1 has a seeded batch of rows
    updated.  The writer's Table objects are loaded before timing starts.
    """

    rewritten = ()
    batch_share = 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.version = dict.fromkeys(self.rewritten, 0)
        self.model = {}
        for t in self.rewritten:
            self.model[t] = (self.rows[t], gen.update_batch(self.cat, t, self.rows[t], self.batch_share, seed))
            for v, rows in enumerate(self.model[t]):
                gen.write_table(self.cat, t, rows, self.version_path(t, v))

    def version_path(self, table, v):
        return os.path.join(self.versions_dir, f"{table}.{v}.csv")

    def prepare(self, run: Run) -> None:
        catalog = run.fcatalog.load_catalog(self.catalog_dir)
        self.writer = {
            t: [run.engine.load_table(self.version_path(t, v), t, catalog) for v in (0, 1)]
            for t in self.rewritten
        }

    def current_rows(self, table):
        if table in self.version:
            return self.model[table][self.version[table]]
        return self.rows[table]

    def rewrite(self, run: Run, table: str, catalog) -> None:
        self.version[table] ^= 1
        v = self.version[table]
        run.save_table((f"save {table}", v), self.writer[table][v], self.table_path(table), self.model[table][v], catalog)


class Point(Versioned):
    """Embedded application: catalog and small tables in memory, short statements."""

    name = "point"
    sizes = {"cartulina": 32, "pilas": 32, "rollos": 48, "personas": 24}
    rewritten = ("personas",)
    batch_share = 0.25
    setups = 121
    tail_pct = 99
    min_samples = 1000

    STATEMENTS = (
        Stmt("rollos", ["cod_rollo", "formato_largo", "estado"], cond("cod_rollo", 7, 0.5)),
        Stmt("rollos", ["cod_rollo", "altura"], cond("cod_rollo", 31, 0.5)),
        Stmt("rollos", ["cod_rollo", "CDEG(formato_largo)"], cond("formato_largo", "largo05", 0.5)),
        Stmt("rollos", ["%"], all_of(cond("altura", 150, 0.6), cond("estado", "def07", 0.2))),
        Stmt("rollos", ["cod_rollo", "CDEG(peso)", "CDEG(estado)"],
             any_of(cond("peso", "peso04", 0.3), cond("estado", "def12", 0.4))),
        Stmt("rollos", ["cod_rollo", "peso", "CDEG(peso)"],
             all_of(any_of(cond("peso", 500, 0.2), cond("peso", "peso09", 0.2)),
                    cond("formato_ancho", "ancho06", 0.1)), fmt="csv"),
        Stmt("cartulina", ["cod_carti", "tono_cara"], cond("cod_carti", 12, 0.5)),
        Stmt("cartulina", ["cod_carti", "CDEG(tono_cara)"], cond("tono_cara", "tono03", 0.3)),
        Stmt("cartulina", ["%"], all_of(cond("tono_cara", "tono10", 0.4), cond("tono_reverso", "tono10", 0.4))),
        Stmt("cartulina", ["cod_carti", "impresion", "CDEG(tono_reverso)"],
             any_of(cond("tono_reverso", "tono21", 0.2), cond("cod_capa", 30)), fmt="jsonl"),
        Stmt("cartulina", ["cod_carti", "tono_reverso"], cond("cod_carti", 25)),
        Stmt("pilas", ["cod_pila", "formato_largo", "formato_ancho"], cond("cod_pila", 5, 0.5)),
        Stmt("pilas", ["cod_pila", "CDEG(formato_largo)", "CDEG(formato_ancho)"],
             all_of(cond("formato_largo", "largo08", 0.2), cond("formato_ancho", "ancho03", 0.2))),
        Stmt("pilas", ["%"], any_of(cond("estado", "def02", 0.3), cond("formato_largo", 120, 0.5)), fmt="csv"),
        Stmt("pilas", ["cod_pila", "estado"], cond("cod_pila", 19, 0.5)),
        Stmt("personas", ["nombre", "edad", "CDEG(edad)"], cond("edad", "edad04", 0.2)),
        Stmt("personas", ["%"], any_of(cond("edad", 40, 0.3), cond("pelo", "pelo05", 0.5))),
        Stmt("personas", ["nombre", "pelo", "CDEG(pelo)"],
             all_of(any_of(cond("pelo", "pelo11", 0.3), cond("pelo", "pelo30", 0.3)), cond("edad", "edad06", 0))),
    )
    # the catalog edits of every round, and the statements that use them
    ALTO_ED = (110, 125, 140, 160)
    AFTER_LABEL = Stmt("rollos", ["cod_rollo", "altura", "CDEG(altura)"], cond("altura", "alto_ed", 0.4))
    AFTER_SIMILARITY = Stmt("cartulina", ["cod_carti", "tono_cara", "CDEG(tono_cara)"],
                            cond("tono_cara", "tono_ed", 0.5))
    # THOLD 0 keeps every row, so the rewritten cells all show
    AFTER_REWRITE = Stmt("personas", ["nombre", "edad", "pelo"], cond("edad", "edad05", 0))
    # the statements run this many times per round, so restoring the catalog
    # at the start of a round costs little next to the round
    repeats = 4
    statements_per_round = repeats * len(STATEMENTS) + 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cat_label = self.cat.copy()
        self.cat_label.column("rollos", "altura").labels["alto_ed"] = self.ALTO_ED
        self.cat_similarity = self.cat_label.copy()
        tono = self.cat_similarity.column("cartulina", "tono_cara")
        tono.labels["tono_ed"] = None
        tono.sim[frozenset(("tono_ed", "tono03"))] = 0.7
        self.snapshot = None

    def setup(self, run: Run) -> None:
        catalog = run.fcatalog.load_catalog(self.catalog_dir)
        tables = {t: run.engine.load_table(self.table_path(t), t, catalog) for t in self.sizes}
        self.catalog, self.tables = catalog, tables

    def round(self, run: Run, r: int) -> None:
        # every round starts from the catalog as loaded; unpickling a snapshot
        # costs a fifth of a deep copy
        if self.snapshot is None:
            self.snapshot = pickle.dumps(self.catalog)
        catalog = pickle.loads(self.snapshot)
        for _ in range(self.repeats):
            for i, stmt in enumerate(self.STATEMENTS):
                v = self.version.get(stmt.table, 0)
                run.statement((i, v), stmt, self.current_rows(stmt.table), self.cat, catalog, tables=self.tables)
        n = len(self.STATEMENTS)

        run.edit("define_label", catalog.define_label, "rollos", "altura", "alto_ed", self.ALTO_ED)
        run.save_catalog("catalog+label", catalog, self.catalog_dir, self.cat_label)
        run.statement((n, 0), self.AFTER_LABEL, self.rows["rollos"], self.cat_label, catalog, tables=self.tables)

        run.edit("define_label", catalog.define_label, "cartulina", "tono_cara", "tono_ed")
        run.edit("set_similarity", catalog.set_similarity, "cartulina", "tono_cara", "tono_ed", "tono03", 0.7)
        run.save_catalog("catalog+similarity", catalog, self.catalog_dir, self.cat_similarity)
        run.statement((n + 1, 0), self.AFTER_SIMILARITY, self.rows["cartulina"], self.cat_similarity,
                      catalog, tables=self.tables)

        self.rewrite(run, "personas", catalog)
        self.tables["personas"] = self.writer["personas"][self.version["personas"]]
        run.statement((n + 2, self.version["personas"]), self.AFTER_REWRITE, self.current_rows("personas"),
                      self.cat, catalog, tables=self.tables)


class Scan(Workload):
    """One large table shaped like rollos, loaded once; a fixed statement mix over it."""

    name = "scan"
    sizes = {"rollos": 10000}
    setups = 5
    tail_pct = 75
    min_samples = 110

    STATEMENTS = (
        Stmt("rollos", ["cod_rollo", "CDEG(formato_largo)"], cond("formato_largo", "largo05", 0.8)),
        Stmt("rollos", ["cod_rollo", "altura"], cond("altura", 150, 0.9)),
        Stmt("rollos", ["cod_rollo", "CDEG(altura)"], cond("altura", "alto06", 0.7)),
        Stmt("rollos", ["cod_rollo", "CDEG(estado)"], cond("estado", "def07", 0.5), fmt="csv"),
        Stmt("rollos", ["%"], any_of(cond("formato_ancho", "ancho03", 0.2), cond("peso", "peso09", 0.2))),
        Stmt("rollos", ["cod_rollo", "CDEG(formato_largo)", "CDEG(altura)"],
             all_of(cond("formato_largo", "largo02", 0.3), cond("altura", "alto10", 0.3))),
        Stmt("rollos", ["cod_rollo", "CDEG(peso)", "CDEG(estado)"],
             all_of(any_of(cond("peso", 700, 0.4), cond("peso", "peso03", 0.4)), cond("estado", "def12", 0.1))),
        Stmt("rollos", ["%"],
             any_of(all_of(cond("formato_largo", "largo08", 0.5), cond("formato_ancho", "ancho06", 0.5)),
                    all_of(cond("altura", "alto04", 0.6), cond("estado", "def02", 0.3)))),
        Stmt("rollos", ["%"], cond("estado", "def01", 0)),
        Stmt("rollos", ["cod_rollo", "formato_largo", "peso"],
             all_of(cond("formato_largo", 120, 0), cond("peso", "peso06", 0)), fmt="csv"),
        Stmt("rollos", ["cod_rollo", "CDEG(altura)", "CDEG(peso)", "CDEG(formato_ancho)", "CDEG(estado)"],
             any_of(cond("altura", "alto07", 0.1), cond("peso", 450, 0.1),
                    cond("formato_ancho", "ancho11", 0.1), cond("estado", "def20", 0.1)), fmt="jsonl"),
    )
    # an odd count puts the median inside one statement's samples, not
    # between two statements' clusters
    statements_per_round = len(STATEMENTS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.export_dir = os.path.join(workdir, "export")

    def setup(self, run: Run) -> None:
        self.table = None  # drop the previous copy before loading the next
        self.catalog = run.fcatalog.load_catalog(self.catalog_dir)
        self.table = run.engine.load_table(self.table_path("rollos"), "rollos", self.catalog)

    def round(self, run: Run, r: int) -> None:
        rows = self.rows["rollos"]
        for i, stmt in enumerate(self.STATEMENTS):
            run.statement((i, 0), stmt, rows, self.cat, self.catalog, tables={"rollos": self.table})
        # Every round ends with an export of the catalog and the whole table,
        # so the write rate is taken across the run, as the statement times
        # are, and not from one burst at its end.
        run.save_catalog("export catalog", self.catalog, self.export_dir, self.cat)
        run.save_table("export rollos", self.table, os.path.join(self.export_dir, "rollos.csv"),
                       self.rows["rollos"], self.catalog)


class Session(Versioned):
    """The REPL path: each statement reloads its table's CSV; tables are rewritten as it goes."""

    name = "session"
    sizes = {"cartulina": 2000, "pilas": 2000, "rollos": 2000, "personas": 2000}
    rewritten = tuple(sizes)
    batch_share = 0.05
    setups = 241
    tail_pct = 90
    min_samples = 100

    # per table: statements before the table is rewritten, then one after it;
    # 17 in all, an odd count (see Scan)
    STATEMENTS = {
        "cartulina": (
            (Stmt("cartulina", ["cod_carti", "CDEG(tono_cara)"], cond("tono_cara", "tono03", 0.5)),
             Stmt("cartulina", ["%"], all_of(cond("tono_cara", "tono10", 0.4), cond("tono_reverso", "tono17", 0.4))),
             Stmt("cartulina", ["cod_carti", "impresion"], cond("cod_carti", 1234, 0.5))),
            Stmt("cartulina", ["cod_carti", "tono_cara"], cond("tono_cara", "tono05", 0)),
        ),
        "pilas": (
            (Stmt("pilas", ["cod_pila", "CDEG(formato_largo)"], cond("formato_largo", "largo06", 0.5)),
             Stmt("pilas", ["%"], all_of(any_of(cond("formato_largo", 100, 0.3), cond("formato_ancho", "ancho09", 0.3)),
                                         cond("estado", "def04", 0.2)), fmt="csv"),
             Stmt("pilas", ["cod_pila", "estado"], cond("cod_pila", 777, 0.5))),
            Stmt("pilas", ["cod_pila", "formato_largo"], cond("formato_largo", "largo02", 0)),
        ),
        "rollos": (
            (Stmt("rollos", ["cod_rollo", "CDEG(peso)"], cond("peso", "peso07", 0.6)),
             Stmt("rollos", ["%"], all_of(cond("altura", "alto03", 0.3), cond("estado", "def15", 0.3))),
             Stmt("rollos", ["cod_rollo", "formato_largo", "formato_ancho"],
                  any_of(cond("formato_largo", 90, 0.5), cond("formato_ancho", 90, 0.5)), fmt="jsonl")),
            Stmt("rollos", ["cod_rollo", "estado"], cond("estado", "def01", 0)),
        ),
        "personas": (
            (Stmt("personas", ["nombre", "CDEG(edad)"], cond("edad", "edad03", 0.5)),
             Stmt("personas", ["%"], all_of(cond("edad", 60, 0.2), cond("pelo", "pelo08", 0.4))),
             Stmt("personas", ["nombre", "pelo"], cond("pelo", "pelo20", 0.7)),
             Stmt("personas", ["nombre", "CDEG(pelo)"], cond("pelo", "pelo33", 0.4))),
            Stmt("personas", ["nombre", "edad"], cond("edad", "edad09", 0)),
        ),
    }
    statements_per_round = sum(len(before) + 1 for before, _ in STATEMENTS.values())

    def setup(self, run: Run) -> None:
        self.catalog = run.fcatalog.load_catalog(self.catalog_dir)

    def round(self, run: Run, r: int) -> None:
        for t, (before, after) in self.STATEMENTS.items():
            for i, stmt in enumerate(before):
                run.statement((t, i, self.version[t]), stmt, self.current_rows(t), self.cat, self.catalog,
                              data_dir=self.data_dir)
            self.rewrite(run, t, self.catalog)
            run.statement((t, "after", self.version[t]), after, self.current_rows(t), self.cat, self.catalog,
                          data_dir=self.data_dir)

    def finish(self, run: Run) -> None:
        run.save_catalog("catalog", self.catalog, self.catalog_dir, self.cat)


WORKLOADS = {w.name: w for w in (Point, Scan, Session)}
