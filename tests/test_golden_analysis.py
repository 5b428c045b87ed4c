"""The product path reproduces the frozen golden digests byte-for-byte.

``golden/analysis.json`` was recorded once; see ``golden_analysis.py``
for what it covers and how to check it without pytest.
"""

import pytest

from golden_analysis import CONFIGS, compute, first_mismatch, load_golden


def test_golden_covers_every_config():
    assert set(load_golden()) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_product_matches_golden(name):
    assert first_mismatch(name, compute(CONFIGS[name])) == ""
