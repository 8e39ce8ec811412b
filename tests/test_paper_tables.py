"""Every committed paper table regenerates byte for byte and holds the
orderings the paper states (the checks live in ``paper_tables.py``)."""

import pytest

from repro.experiments import registry
from tests import paper_tables


@pytest.fixture(scope="module")
def results():
    return paper_tables.run_all()


@pytest.mark.parametrize("name", registry.names())
def test_table(results, name):
    result = results[name]
    assert paper_tables.render(result) == \
        paper_tables.table_path(name).read_text()
    paper_tables.CHECKS[name](result)
