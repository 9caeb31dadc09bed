"""The mutant catalogue stays applicable: each entry's old text occurs
exactly once in its file, and each test it names is defined in its file.
Running the mutants is `python tests/mutants.py`."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique_and_name_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.tests and m.old != m.new, m.name
        for node in m.tests:
            path, _, test = node.partition("::")
            assert (ROOT / path).is_file(), (m.name, node)
            # a renamed test cannot silently orphan its mutant
            assert f"def {test.split('[')[0]}(" in (ROOT / path).read_text(), (m.name, node)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
