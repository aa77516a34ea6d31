"""Shared fixtures: the bundled example catalog and its tables."""

import os
import shutil

import pytest

from fuzzydb import Catalog, case_study_dir, load_catalog, load_table


@pytest.fixture(scope="session")
def case_dir():
    return case_study_dir()


@pytest.fixture()
def case_catalog(case_dir):
    return load_catalog(case_dir)


@pytest.fixture()
def case_copy(case_dir, tmp_path):
    """A writable copy of the bundled catalog and tables, for tests that corrupt them."""
    return shutil.copytree(case_dir, tmp_path / "casestudy")


@pytest.fixture()
def case_tables(case_dir, case_catalog):
    tables = {}
    for name in case_catalog.tables():
        path = os.path.join(case_dir, name + ".csv")
        tables[name] = load_table(path, name, case_catalog)
    return tables


@pytest.fixture()
def small_catalog():
    """A two-table catalog built in memory, independent of the bundled files."""
    cat = Catalog()
    cat.register_attribute("lots", "code", 1, "numeric")
    cat.register_attribute("lots", "width", 2, "numeric", units="cm")
    cat.register_attribute("lots", "finish", 3, "scalar")
    cat.define_label("lots", "width", "narrow", (0, 0, 30, 40))
    cat.define_label("lots", "width", "wide", (30, 40, 80, 90))
    for name in ("matte", "satin", "gloss"):
        cat.define_label("lots", "finish", name)
    cat.set_similarity("lots", "finish", "satin", "gloss", 0.7)
    cat.set_similarity("lots", "finish", "matte", "satin", 0.2)
    cat.register_attribute("notes", "id", 1, "numeric")
    cat.register_attribute("notes", "text", 1, "scalar")
    return cat
