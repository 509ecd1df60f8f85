"""Platforms shared by the equivalence suites of several test packages.

Importable as ``platforms`` from any test module: the test root holds
the suite's ``conftest.py``, so pytest puts it on ``sys.path``.
"""

from repro import Platform


def skewed_links(p: int) -> list[list[float]]:
    """An asymmetric, non-uniform link matrix with non-dyadic costs:
    ``link(i, j) != link(j, i)`` for most pairs, so every ordered pair's
    transfer duration differs from the unit network's."""
    return [
        [0.0 if i == j else 0.5 + ((3 * i + 7 * j) % 5) * 0.35 for j in range(p)]
        for i in range(p)
    ]


#: Platform shapes the paper platform (a unit network) leaves out:
#: per-pair link costs, and three processors under heavy communication,
#: whose long rows take many mid-row inserts.
OTHER_PLATFORMS = {
    "skewed-links": lambda: Platform([6.0, 10.0, 15.0, 6.0, 10.0], skewed_links(5)),
    "contended": lambda: Platform.from_groups([(1, 4), (2, 9)], link=2.5),
}
