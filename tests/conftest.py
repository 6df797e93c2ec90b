from collections import Counter

import pytest

from pigraphs import families
from pigraphs.semigroups import _Products


@pytest.fixture(scope="session")
def isn():
    """Symmetric inverse semigroups for n = 1..4, built once."""
    return {n: families.symmetric_inverse(n) for n in range(1, 5)}


@pytest.fixture
def products(monkeypatch):
    """products() counts, in the Counter it returns, the products that
    each view a family builds from then on computes: under "walk" those
    of its constructor's walk, under "after" any once it is built.  It
    wraps the product the family hands to ``_Products``."""
    def count():
        counter = Counter()

        def counted_view(product, gens, key):
            built = []

            def counted(x, y):
                counter["after" if built else "walk"] += 1
                return product(x, y)

            view = _Products(counted, gens, key)
            built.append(view)
            return view

        monkeypatch.setattr(families, "_Products", counted_view)
        return counter
    return count
