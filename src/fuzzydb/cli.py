"""Command-line front end: one-shot queries, a small REPL, catalog upkeep.

Exit codes: 0 success, 1 query rejected (syntax or compilation), 2 anything
wrong with configuration, catalog, or data files.  Defaults for --catalog,
--data-dir, --format, and --locale can come from FUZZYDB_CATALOG,
FUZZYDB_DATA_DIR, FUZZYDB_FORMAT, and FUZZYDB_LOCALE.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import ATTRIBUTES_FILE, Catalog, load_catalog, save_catalog
from .core import format_number
from .data import case_study_dir
from .engine import format_result, run_query
from .errors import CatalogError, FsqlError, FuzzyDbError
from .fsql import compile_query, parse_query

FORMATS = ("table", "csv", "jsonl")
LOCALES = ("dot", "comma")


def _env(name: str):
    return os.environ.get("FUZZYDB_" + name)


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("threshold must be in [0, 1]")
    return value


def _choice(value, env_name: str, choices, fallback: str) -> str:
    if value is None:
        value = _env(env_name) or fallback
    if value not in choices:
        raise CatalogError(f"{env_name.lower()} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _catalog_dir(args) -> str:
    return args.catalog or _env("CATALOG") or case_study_dir()


def _data_dir(args) -> str:
    return args.data_dir or _env("DATA_DIR") or case_study_dir()


def _split_target(target: str):
    parts = target.split(".")
    if len(parts) != 2 or not all(parts):
        raise CatalogError(f"expected TABLE.COLUMN, got {target!r}")
    return parts[0], parts[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzydb",
        description="Query tables whose cells hold fuzzy values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data=True):
        p.add_argument("--catalog", metavar="DIR", help="catalog directory (default: bundled example)")
        if with_data:
            p.add_argument("--data-dir", metavar="DIR", help="table directory (default: bundled example)")
            p.add_argument("--format", choices=FORMATS, help="result format (default: table)")
            p.add_argument("--locale", choices=LOCALES, help="decimal separator style (default: dot)")
            p.add_argument(
                "--thold",
                type=_threshold,
                default=1.0,
                metavar="T",
                help="threshold applied to conditions without THOLD (default: 1)",
            )

    query = sub.add_parser("query", help="run one FSQL statement")
    query.add_argument("sql", nargs="?", help="FSQL text; read from stdin when omitted")
    add_common(query)
    query.add_argument("--explain", action="store_true", help="show the plan instead of running it")
    query.add_argument("--stats", action="store_true", help="print phase timings to stderr")

    repl = sub.add_parser("repl", help="interactive session, one statement per line")
    add_common(repl)

    cat = sub.add_parser("catalog", help="inspect or edit a catalog directory")
    csub = cat.add_subparsers(dest="subcommand", required=True)

    show = csub.add_parser("show", help="list attributes, labels, and similarity pairs")
    add_common(show, with_data=False)

    add_attr = csub.add_parser("add-attr", help="register a column")
    add_attr.add_argument("target", metavar="TABLE.COLUMN")
    add_attr.add_argument("--type", type=int, required=True, choices=(1, 2, 3), help="fuzzy type")
    add_attr.add_argument("--domain", choices=("numeric", "scalar"), default="numeric")
    add_attr.add_argument("--units", help="unit note kept with the column")
    add_common(add_attr, with_data=False)

    add_label = csub.add_parser("add-label", help="define a label on a column")
    add_label.add_argument("target", metavar="TABLE.COLUMN")
    add_label.add_argument("name")
    add_label.add_argument(
        "--corners",
        nargs=4,
        type=float,
        metavar=("A", "B", "C", "D"),
        help="trapezoid corners; omit for scalar domain elements",
    )
    add_common(add_label, with_data=False)

    set_sim = csub.add_parser("set-sim", help="set the similarity of two domain elements")
    set_sim.add_argument("target", metavar="TABLE.COLUMN")
    set_sim.add_argument("name1")
    set_sim.add_argument("name2")
    set_sim.add_argument("degree", type=float)
    add_common(set_sim, with_data=False)

    return parser


def _catalog_summary(catalog: Catalog) -> str:
    lines = []
    for attr in catalog.attributes():
        head = f"{attr.qualified}: type {int(attr.ftype)}, {attr.domain_kind}"
        if attr.units:
            head += f", units {attr.units}"
        lines.append(head)
        if attr.labels:
            parts = []
            for ld in sorted(attr.labels, key=lambda x: x.fuzzy_id):
                if ld.trap is not None:
                    corners = ", ".join(format_number(x) for x in ld.trap.corners())
                    parts.append(f"{ld.name}({ld.fuzzy_id}) $[{corners}]")
                else:
                    parts.append(f"{ld.name}({ld.fuzzy_id})")
            lines.append("  labels: " + "; ".join(parts))
        pairs = attr.similarity.pairs() if attr.similarity is not None else []
        if pairs:
            lines.append("  similarity: " + ", ".join(f"{d1}~{d2}={s}" for d1, d2, s in pairs))
    return "\n".join(lines)


def cmd_query(args) -> int:
    sql = args.sql if args.sql is not None else sys.stdin.read()
    catalog = load_catalog(_catalog_dir(args))
    fmt = _choice(args.format, "FORMAT", FORMATS, "table")
    locale = _choice(args.locale, "LOCALE", LOCALES, "dot")
    if args.explain:
        plan = compile_query(parse_query(sql), catalog, args.thold)
        print(plan.explain())
        return 0
    result = run_query(sql, catalog, data_dir=_data_dir(args), default_threshold=args.thold)
    print(format_result(result, fmt, locale))
    if args.stats:
        s = result.stats
        print(
            f"parse {s.parse_seconds * 1000:.2f}ms  compile {s.compile_seconds * 1000:.2f}ms  "
            f"execute {s.execute_seconds * 1000:.2f}ms  rows {s.rows_in} -> {s.rows_out}",
            file=sys.stderr,
        )
    return 0


def cmd_repl(args) -> int:
    catalog = load_catalog(_catalog_dir(args))
    data_dir = _data_dir(args)
    fmt = _choice(args.format, "FORMAT", FORMATS, "table")
    locale = _choice(args.locale, "LOCALE", LOCALES, "dot")
    threshold = args.thold
    sys.stderr.write("type an FSQL statement, or .help\n")
    while True:
        sys.stderr.write("fsql> ")
        sys.stderr.flush()
        line = sys.stdin.readline()
        if not line:
            sys.stderr.write("\n")
            return 0
        line = line.strip()
        if not line:
            continue
        if line.startswith("."):
            words = line.split()
            command, rest = words[0], words[1:]
            if command in (".quit", ".exit"):
                return 0
            if command == ".help":
                sys.stderr.write(
                    ".catalog            show attributes and labels\n"
                    ".format [FMT]       show or set table/csv/jsonl\n"
                    ".thold [T]          show or set the default threshold\n"
                    ".quit               leave\n"
                )
            elif command == ".catalog":
                print(_catalog_summary(catalog))
            elif command == ".format":
                if rest and rest[0] in FORMATS:
                    fmt = rest[0]
                elif rest:
                    sys.stderr.write(f"unknown format {rest[0]!r}\n")
                else:
                    sys.stderr.write(fmt + "\n")
            elif command == ".thold":
                if rest:
                    try:
                        threshold = _threshold(rest[0])
                    except argparse.ArgumentTypeError as exc:
                        sys.stderr.write(f"{exc}\n")
                else:
                    sys.stderr.write(f"{threshold}\n")
            else:
                sys.stderr.write(f"unknown command {command}; try .help\n")
            continue
        try:
            result = run_query(line, catalog, data_dir=data_dir, default_threshold=threshold)
            print(format_result(result, fmt, locale))
        except FuzzyDbError as exc:
            sys.stderr.write(f"error: {exc}\n")


def _writable_catalog_dir(args) -> str:
    directory = args.catalog or _env("CATALOG")
    if not directory:
        raise CatalogError("refusing to edit the bundled example; pass --catalog DIR")
    return directory


def _load_or_new(directory: str) -> Catalog:
    if os.path.exists(os.path.join(directory, ATTRIBUTES_FILE)):
        return load_catalog(directory)
    return Catalog()


def cmd_catalog(args) -> int:
    if args.subcommand == "show":
        catalog = load_catalog(_catalog_dir(args))
        summary = _catalog_summary(catalog)
        if summary:
            print(summary)
        bad = [(attr, report) for attr, report in catalog.validate() if not report.ok]
        for attr, report in bad:
            print(f"{attr.qualified}: {report}", file=sys.stderr)
        return 2 if bad else 0
    directory = _writable_catalog_dir(args)
    catalog = _load_or_new(directory)
    table, column = _split_target(args.target)
    if args.subcommand == "add-attr":
        catalog.register_attribute(table, column, args.type, args.domain, args.units)
        message = f"registered {table}.{column}"
    elif args.subcommand == "add-label":
        catalog.define_label(table, column, args.name, args.corners)
        message = f"defined label {args.name} on {table}.{column}"
    else:
        catalog.set_similarity(table, column, args.name1, args.name2, args.degree)
        message = f"set {args.name1}~{args.name2} to {args.degree} on {table}.{column}"
    save_catalog(catalog, directory)
    print(message, file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "query":
            return cmd_query(args)
        if args.command == "repl":
            return cmd_repl(args)
        return cmd_catalog(args)
    except FsqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FuzzyDbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
