"""The recorded mutants of `mutants/catalog.py` still apply where they say.

Running them takes about half a minute (`python3 mutants/run.py`); this
checks only that each one's edit can still be made, so that a change that
moves mutated code updates the catalog in the open."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _catalog():
    spec = importlib.util.spec_from_file_location(
        "mutant_catalog", os.path.join(ROOT, "mutants", "catalog.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _catalog()


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_each_mutant_applies_once(mutant):
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.status in ("killed", "equivalent")
    assert mutant.recorded and (mutant.status == "killed" or mutant.reason)
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, test.split("::")[0]))
