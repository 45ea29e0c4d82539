"""The TPC-DS generator's bytes: its Zipf draw is ``Generator.choice``'s,
element for element, and whole databases hash to committed digests.

A generator change that moves a single value fails here, naming the table,
instead of showing up downstream as moved plans and answer digests.
Regenerate ``tpcds_digests.json`` only for an intended data change, with
``PYTHONPATH=src python -m tests.workloads.test_datagen``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.service.protocol import table_digest
from repro.workloads.tpcds import datagen, generate_tpcds, scaled_rows

DIGESTS = Path(__file__).with_name("tpcds_digests.json")

#: ``(scale, seed)`` of the pinned builds: the session fixture and the
#: ``star`` benchmark's database.
PINNED = ((0.08, 3), (0.3, 1))


def _weights(n, alpha, shift):
    ranks = np.arange(1 + shift, n + 1 + shift, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def _generator_shapes(scale):
    """The six ``(n, size, alpha, shift)`` the generator draws at ``scale``."""
    n_item, n_customer = scaled_rows("item", scale), scaled_rows("customer", scale)
    shapes = []
    for fact in ("store_sales", "catalog_sales", "web_sales"):
        size = scaled_rows(fact, scale)
        shapes += [(n_item, size, 0.9, 20), (n_customer, size, 0.5, 100)]
    return shapes


SHAPES = (
    _generator_shapes(0.08) + _generator_shapes(0.3)
    + [(1, 50, 0.9, 20), (1, 0, 0.9, 20), (5, 0, 0.9, 20), (7, 1, 0.9, 20), (2, 1000, 3.0, 0)]
)


class TestZipfChoice:
    @pytest.mark.parametrize("n,size,alpha,shift", SHAPES)
    def test_equals_generator_choice(self, n, size, alpha, shift):
        for seed in range(20):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            got = datagen._zipf_choice(ours, n, size, alpha=alpha, shift=shift)
            want = numpys.choice(n, size=size, p=_weights(n, alpha, shift))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            # The stream is left where ``choice`` leaves it.
            assert ours.random() == numpys.random()

    def test_flat_cdf_takes_several_correction_rounds(self):
        """More CDF entries than grid cells: cells hold several entries
        each, so rows step more than once."""
        n = 300_000
        assert n > datagen._MAX_CELLS
        for seed in range(20):
            got = datagen._zipf_choice(np.random.default_rng(seed), n, 20_000, alpha=0.1, shift=0)
            want = np.random.default_rng(seed).choice(n, size=20_000, p=_weights(n, 0.1, 0))
            np.testing.assert_array_equal(got, want)

    def test_inverse_cdf_at_the_entries(self):
        """Uniforms equal to a CDF entry, or just either side of one: the
        ties ``side="right"`` breaks."""
        cdf = np.cumsum(_weights(1000, 0.9, 20))
        cdf /= cdf[-1]
        inner = cdf[:-1]
        u = np.concatenate([[0.0], inner, np.nextafter(inner, 0), np.nextafter(inner, 1),
                            [np.nextafter(1.0, 0)]])
        np.testing.assert_array_equal(datagen._inverse_cdf(cdf, u), cdf.searchsorted(u, side="right"))


def _digests(scale, seed):
    db = generate_tpcds(scale=scale, seed=seed)
    return {name: table_digest(db.table(name)) for name in db.table_names()}


class TestGeneratedBytes:
    @pytest.mark.parametrize("scale,seed", PINNED)
    def test_tables_match_committed_digests(self, scale, seed):
        pinned = json.loads(DIGESTS.read_text())[f"{scale}/{seed}"]
        got = _digests(scale, seed)
        assert sorted(got) == sorted(pinned)
        moved = [name for name in sorted(got) if got[name] != pinned[name]]
        assert not moved, f"generate_tpcds(scale={scale}, seed={seed}) changed tables {moved}"


if __name__ == "__main__":
    entries = {f"{scale}/{seed}": _digests(scale, seed) for scale, seed in PINNED}
    DIGESTS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
