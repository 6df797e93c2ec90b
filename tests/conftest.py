from collections import Counter

import pytest

from pigraphs import families


@pytest.fixture(scope="session")
def isn():
    """Symmetric inverse semigroups for n = 1..4, built once."""
    return {n: families.symmetric_inverse(n) for n in range(1, 5)}


@pytest.fixture
def products(monkeypatch):
    """products(s) counts, in the Counter it returns, the products that
    the view table of s computes from then on."""
    def count(s):
        counter, product = Counter(), s.table.product

        def counted(x, y):
            counter["products"] += 1
            return product(x, y)

        monkeypatch.setattr(s.table, "product", counted)
        return counter
    return count
