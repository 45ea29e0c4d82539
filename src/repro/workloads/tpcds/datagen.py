"""Synthetic TPC-DS-shaped data generator.

Substitutes for dsdgen at laptop scale (see DESIGN.md): the evaluation's
conclusions depend on schema structure, key relationships and skew — not on
absolute bytes — so the generator preserves:

* foreign keys from facts to dimensions (date / item / customer / store);
* Zipf-skewed popularity of items and customers (heavy hitters exist, which
  exercises the catalog's heavy-hitter statistics and the distinct
  sampler's Bernoulli regime);
* returns that reference actual sales (shared ticket / order numbers), so
  fact-fact joins have realistic match rates;
* skewed monetary values (lognormal prices, heavy-tailed profit) so SUM
  aggregates exhibit the value-skew error mode the paper discusses. Each
  is rounded to cents and declared ``decimal(7,2)``, as TPC-DS declares
  them.
"""

from __future__ import annotations


import numpy as np

from repro.engine.table import Database, Table
from repro.workloads.tpcds.schema import BASE_ROWS, TABLE_COLUMNS

__all__ = ["generate_tpcds", "scaled_rows"]

_STATES = np.asarray(["CA", "TX", "NY", "WA", "IL", "FL", "GA", "OH", "MI", "NC"])
_CATEGORIES = np.asarray(["Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Women", "Children"])
_COLORS = np.asarray(["red", "blue", "green", "black", "white", "yellow", "purple", "navy", "maroon", "beige"])


def _cents(*columns: str) -> dict:
    """The ``decimals`` declaration of money columns: two digits after the
    point (TPC-DS's ``decimal(7,2)``)."""
    return dict.fromkeys(columns, 2)


def scaled_rows(table: str, scale: float) -> int:
    """Row count of a table at the given scale factor."""
    base = BASE_ROWS[table]
    if table in ("item", "date_dim", "store", "promotion"):
        # Dimensions grow sub-linearly, as in TPC-DS.
        return max(8, int(base * min(1.0, 0.5 + scale / 2)))
    return max(16, int(base * scale))


def _zipf_choice(
    rng: np.random.Generator,
    n_values: int,
    size: int,
    alpha: float = 0.9,
    shift: int = 20,
) -> np.ndarray:
    """Shifted-Zipf draws over 0..n_values-1 (rank 0 is the heaviest).

    The shift flattens the extreme head: a pure Zipf head value can carry
    >10% of a fact table, which makes self-joins on that key quadratic. With
    the shift, heavy hitters still exist (the catalog and the distinct
    sampler see them) but fact-fact joins stay near-linear, as in
    real TPC-DS data where key popularity is only mildly skewed.
    """
    ranks = np.arange(1 + shift, n_values + 1 + shift, dtype=np.float64)
    weights = ranks**-alpha
    weights /= weights.sum()
    # ``rng.choice(n_values, size, p=weights)``, element for element: the
    # same CDF and the same uniforms, inverted without a binary search.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return _inverse_cdf(cdf, rng.random(size))


#: Cells of the inverse-CDF grid per CDF entry, and their cap (the grid
#: stays cache-sized; a flatter CDF costs more correction rounds instead).
_CELLS_PER_VALUE = 4
_MAX_CELLS = 1 << 16


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for a CDF ending at 1.0 and
    ``u`` in [0, 1), through a grid of ``m`` (a power of two) equal cells.

    ``start[g]`` counts the entries ``<= g / m``: an entry ``c`` counts from
    cell ``ceil(c * m)`` on, and scaling by a power of two is exact. Each
    ``u`` starts at its cell's count, a lower bound of the answer, and steps
    up while ``cdf[idx] <= u``; the last entry is 1.0 > ``u``, so no index
    passes it. Where no cell holds two entries, one step settles every row;
    the grid's size makes that the common case.
    """
    m = min(1 << (_CELLS_PER_VALUE * len(cdf) - 1).bit_length(), _MAX_CELLS)
    first_cell = np.ceil(cdf * m).astype(np.intp)
    start = np.cumsum(np.bincount(first_cell, minlength=m + 1)[:m])
    idx = start[(u * m).astype(np.intp)]
    step = cdf[idx] <= u
    idx += step
    moved = np.flatnonzero(step)
    while moved.size:
        moved = moved[cdf[idx[moved]] <= u[moved]]
        idx[moved] += 1
    return idx


#: Fact tables are physically clustered on their sale/return date — the
#: layout the partition catalog's range pruning exploits (dimension tables
#: are broadcast, so they never need a layout).
CLUSTER_COLUMNS = {
    "store_sales": "ss_sold_date_sk",
    "catalog_sales": "cs_sold_date_sk",
    "web_sales": "ws_sold_date_sk",
    "store_returns": "sr_returned_date_sk",
    "web_returns": "wr_returned_date_sk",
}


def generate_tpcds(scale: float = 1.0, seed: int = 42, stats: bool = True) -> Database:
    """Build a fully-populated TPC-DS-style database.

    ``scale`` multiplies fact-table cardinalities (scale 1.0 is ~340k fact
    rows total — enough for the sampling effects to be visible while every
    benchmark query still runs in well under a second). With ``stats``
    (the default) the database carries a lazy partition catalog clustered
    on the fact tables' date columns; per-partition summaries are computed
    on first use, so generation itself stays fast.
    """
    rng = np.random.default_rng(seed)
    db = Database()

    n_item = scaled_rows("item", scale)
    n_date = scaled_rows("date_dim", scale)
    n_customer = scaled_rows("customer", scale)
    n_address = scaled_rows("customer_address", scale)
    n_store = scaled_rows("store", scale)
    n_promo = scaled_rows("promotion", scale)

    # -- dimensions -----------------------------------------------------------
    item_sk = np.arange(n_item)
    db.register(
        Table(
            "item",
            {
                "i_item_sk": item_sk,
                "i_brand_id": rng.integers(1, 60, n_item),
                "i_class_id": rng.integers(1, 20, n_item),
                "i_category_id": rng.integers(0, len(_CATEGORIES), n_item),
                "i_category": _CATEGORIES[rng.integers(0, len(_CATEGORIES), n_item)],
                "i_color": _COLORS[rng.integers(0, len(_COLORS), n_item)],
                "i_manager_id": rng.integers(1, 40, n_item),
                "i_current_price": np.round(rng.lognormal(2.5, 0.8, n_item), 2),
            },
        ),
        decimals=_cents("i_current_price"),
    )

    date_sk = np.arange(n_date)
    day_of_year = date_sk % 365
    db.register(
        Table(
            "date_dim",
            {
                "d_date_sk": date_sk,
                "d_year": 2000 + date_sk // 365,
                "d_moy": (day_of_year // 30) % 12 + 1,
                "d_qoy": (day_of_year // 91) % 4 + 1,
                "d_dow": date_sk % 7,
                "d_month_seq": date_sk // 30,
            },
        )
    )

    customer_sk = np.arange(n_customer)
    db.register(
        Table(
            "customer",
            {
                "c_customer_sk": customer_sk,
                "c_current_addr_sk": rng.integers(0, n_address, n_customer),
                "c_birth_year": rng.integers(1940, 2000, n_customer),
                "c_preferred_cust_flag": rng.integers(0, 2, n_customer),
            },
        )
    )

    db.register(
        Table(
            "customer_address",
            {
                "ca_address_sk": np.arange(n_address),
                "ca_state": _STATES[rng.integers(0, len(_STATES), n_address)],
                "ca_gmt_offset": rng.integers(-8, -4, n_address),
            },
        )
    )

    db.register(
        Table(
            "store",
            {
                "s_store_sk": np.arange(n_store),
                "s_state": _STATES[rng.integers(0, len(_STATES), n_store)],
                "s_county": rng.integers(0, 30, n_store),
                "s_gmt_offset": rng.integers(-8, -4, n_store),
            },
        )
    )

    db.register(
        Table(
            "promotion",
            {
                "p_promo_sk": np.arange(n_promo),
                "p_channel_email": rng.integers(0, 2, n_promo),
                "p_channel_event": rng.integers(0, 2, n_promo),
            },
        )
    )

    # -- store channel ------------------------------------------------------------
    n_ss = scaled_rows("store_sales", scale)
    ss_quantity = rng.integers(1, 100, n_ss)
    ss_price = np.round(rng.lognormal(2.2, 0.9, n_ss), 2)
    ss_wholesale = np.round(ss_price * rng.uniform(0.4, 0.9, n_ss), 2)
    db.register(
        Table(
            "store_sales",
            {
                "ss_sold_date_sk": rng.integers(0, n_date, n_ss),
                "ss_item_sk": _zipf_choice(rng, n_item, n_ss),
                "ss_customer_sk": _zipf_choice(rng, n_customer, n_ss, alpha=0.5, shift=100),
                "ss_store_sk": rng.integers(0, n_store, n_ss),
                "ss_promo_sk": rng.integers(0, n_promo, n_ss),
                "ss_ticket_number": np.arange(n_ss) // 4,  # ~4 line items per basket
                "ss_quantity": ss_quantity,
                "ss_sales_price": ss_price,
                "ss_ext_sales_price": np.round(ss_price * ss_quantity, 2),
                "ss_wholesale_cost": ss_wholesale,
                "ss_net_profit": np.round((ss_price - ss_wholesale) * ss_quantity, 2),
            },
        ),
        decimals=_cents(
            "ss_sales_price", "ss_ext_sales_price", "ss_wholesale_cost", "ss_net_profit"
        ),
    )

    # Store returns reverse a subset of store sales (same ticket/item/customer).
    n_sr = scaled_rows("store_returns", scale)
    returned = rng.choice(n_ss, size=min(n_sr, n_ss), replace=False)
    ss = db.table("store_sales")
    return_qty = np.minimum(ss.column("ss_quantity")[returned], rng.integers(1, 20, len(returned)))
    db.register(
        Table(
            "store_returns",
            {
                "sr_returned_date_sk": np.minimum(
                    ss.column("ss_sold_date_sk")[returned] + rng.integers(1, 90, len(returned)),
                    n_date - 1,
                ),
                "sr_item_sk": ss.column("ss_item_sk")[returned],
                "sr_customer_sk": ss.column("ss_customer_sk")[returned],
                "sr_ticket_number": ss.column("ss_ticket_number")[returned],
                "sr_return_quantity": return_qty,
                "sr_return_amt": np.round(ss.column("ss_sales_price")[returned] * return_qty, 2),
                "sr_net_loss": np.round(rng.exponential(25, len(returned)), 2),
            },
        ),
        decimals=_cents("sr_return_amt", "sr_net_loss"),
    )

    # -- catalog channel ------------------------------------------------------------
    n_cs = scaled_rows("catalog_sales", scale)
    cs_quantity = rng.integers(1, 100, n_cs)
    cs_price = np.round(rng.lognormal(2.4, 0.9, n_cs), 2)
    db.register(
        Table(
            "catalog_sales",
            {
                "cs_sold_date_sk": rng.integers(0, n_date, n_cs),
                "cs_item_sk": _zipf_choice(rng, n_item, n_cs),
                "cs_bill_customer_sk": _zipf_choice(rng, n_customer, n_cs, alpha=0.5, shift=100),
                "cs_promo_sk": rng.integers(0, n_promo, n_cs),
                "cs_order_number": np.arange(n_cs) // 3,
                "cs_quantity": cs_quantity,
                "cs_sales_price": cs_price,
                "cs_ext_sales_price": np.round(cs_price * cs_quantity, 2),
                "cs_net_profit": np.round(cs_price * cs_quantity * rng.normal(0.12, 0.2, n_cs), 2),
            },
        ),
        decimals=_cents("cs_sales_price", "cs_ext_sales_price", "cs_net_profit"),
    )

    # -- web channel ------------------------------------------------------------------
    n_ws = scaled_rows("web_sales", scale)
    ws_quantity = rng.integers(1, 100, n_ws)
    ws_price = np.round(rng.lognormal(2.3, 1.0, n_ws), 2)
    db.register(
        Table(
            "web_sales",
            {
                "ws_sold_date_sk": rng.integers(0, n_date, n_ws),
                "ws_item_sk": _zipf_choice(rng, n_item, n_ws),
                "ws_bill_customer_sk": _zipf_choice(rng, n_customer, n_ws, alpha=0.5, shift=100),
                "ws_order_number": np.arange(n_ws) // 3,
                "ws_quantity": ws_quantity,
                "ws_sales_price": ws_price,
                "ws_net_profit": np.round(ws_price * ws_quantity * rng.normal(0.1, 0.25, n_ws), 2),
            },
        ),
        decimals=_cents("ws_sales_price", "ws_net_profit"),
    )

    n_wr = scaled_rows("web_returns", scale)
    ws = db.table("web_sales")
    wr_src = rng.choice(n_ws, size=min(n_wr, n_ws), replace=False)
    db.register(
        Table(
            "web_returns",
            {
                "wr_returned_date_sk": np.minimum(
                    ws.column("ws_sold_date_sk")[wr_src] + rng.integers(1, 60, len(wr_src)),
                    n_date - 1,
                ),
                "wr_item_sk": ws.column("ws_item_sk")[wr_src],
                "wr_refunded_customer_sk": ws.column("ws_bill_customer_sk")[wr_src],
                "wr_order_number": ws.column("ws_order_number")[wr_src],
                "wr_return_amt": np.round(
                    ws.column("ws_sales_price")[wr_src] * rng.integers(1, 10, len(wr_src)), 2
                ),
            },
        ),
        decimals=_cents("wr_return_amt"),
    )

    # Sanity: every table exposes exactly the documented schema.
    for name, columns in TABLE_COLUMNS.items():
        assert set(db.columns(name)) == set(columns), name
    if stats:
        from repro.stats.catalog import PartitionCatalog

        db.partition_stats = PartitionCatalog(db, cluster_columns=CLUSTER_COLUMNS)
    return db
