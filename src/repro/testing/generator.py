"""Deterministic, seedable SQL query generator for differential fuzzing.

Generates random queries over the synthetic TPC-DS catalog as small
structured specs (:class:`QuerySpec` → :class:`SelectBlock`) that
render to SQL text.  The structure exists for the delta-debugging
minimizer (:mod:`repro.testing.minimizer`): shrink moves delete spec
elements, and the rendered SQL goes through the real parser/binder, so
an over-aggressive shrink simply changes the failure signature (to a
uniform binder error) and rejects itself.

The shape distribution is deliberately biased toward plans the fusion
rules rewrite — UNION ALL over the same table, CTEs referenced twice,
repeated scalar subqueries (TPC-DS Q9's shape), GroupBy joined back to
its input (Q30's shape) — plus the NULL-heavy fact columns
(``ss_customer_sk`` and friends) and three-valued-logic bait
(``IN (…, NULL)``, ``IS NULL``, ``CASE … ELSE NULL``) that shake out
mask/compensation bugs.

Everything is driven by one ``random.Random(seed)``: the same seed
always yields the same query sequence.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog

#: Tables the fuzzer draws from.  A small pool makes independently
#: generated subqueries collide on tables, which is what gives fusion
#: something to merge.
TABLE_POOL = (
    "store_sales",
    "store_returns",
    "item",
    "store",
    "customer",
    "date_dim",
)

#: Foreign-key edges used for join conditions (fact → dimension).
JOIN_EDGES = {
    "store_sales": (
        ("item", "ss_item_sk", "i_item_sk"),
        ("store", "ss_store_sk", "s_store_sk"),
        ("customer", "ss_customer_sk", "c_customer_sk"),
        ("date_dim", "ss_sold_date_sk", "d_date_sk"),
        ("store_returns", "ss_item_sk", "sr_item_sk"),
    ),
    "store_returns": (
        ("item", "sr_item_sk", "i_item_sk"),
        ("customer", "sr_customer_sk", "c_customer_sk"),
        ("store", "sr_store_sk", "s_store_sk"),
    ),
}

#: Columns both fact tables carry (as ``<prefix>_<suffix>``), none of
#: them unique: a join on one is many-to-many on both sides.
FACT_PREFIXES = {"store_sales": "ss", "store_returns": "sr"}
FACT_KEY_SUFFIXES = ("item_sk", "customer_sk", "store_sk", "ticket_number")

#: Fact columns the dataset generator salts with NULLs — predicates on
#: them exercise three-valued logic.
NULLABLE_COLUMNS = frozenset(
    {"ss_customer_sk", "ss_hdemo_sk", "ss_addr_sk", "sr_customer_sk"}
)


@dataclass
class ColumnInfo:
    """A column visible in some scope: name, type, and (for literal
    sampling) the stored min/max when the catalog has statistics."""

    name: str
    dtype: DataType
    lo: object | None = None
    hi: object | None = None

    @property
    def is_numeric(self) -> bool:
        return self.dtype.is_numeric


#: A scope maps aliases to the columns they expose.
Scope = list[tuple[str, list[ColumnInfo]]]


@dataclass
class Aggregate:
    """``func(DISTINCT arg) FILTER (WHERE mask)`` as rendered text."""

    func: str
    arg: str | None  # None = count(*)
    distinct: bool = False
    mask: str | None = None

    def render(self, alias: str) -> str:
        if self.arg is None:
            inner = "*"
        else:
            inner = f"DISTINCT {self.arg}" if self.distinct else self.arg
        sql = f"{self.func}({inner})"
        if self.mask is not None:
            sql += f" FILTER (WHERE {self.mask})"
        return f"{sql} AS {alias}"


@dataclass
class JoinSpec:
    """One FROM-clause join; ``query`` makes it a derived table."""

    kind: str  # "INNER JOIN" | "LEFT JOIN" | "CROSS JOIN"
    table: str | None
    alias: str
    on: str | None
    query: "SelectBlock | None" = None

    def render(self) -> str:
        source = f"({self.query.render()})" if self.query is not None else self.table
        sql = f"{self.kind} {source} {self.alias}"
        if self.on is not None:
            sql += f" ON {self.on}"
        return sql


@dataclass
class SelectBlock:
    """One SELECT … FROM … [JOIN …] [WHERE …] [GROUP BY …] [HAVING …].

    When ``group_by``/``aggregates`` are set the select list is derived
    from them; otherwise ``select`` holds plain rendered expressions.
    ``out_infos`` records output name/type metadata for enclosing
    scopes at generation time (it is not rendered, and may go stale
    under minimization, which is harmless).
    """

    base_table: str
    base_alias: str
    joins: list[JoinSpec] = field(default_factory=list)
    select: list[str] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[Aggregate] = field(default_factory=list)
    where: list[str] = field(default_factory=list)
    having: list[str] = field(default_factory=list)
    distinct: bool = False
    out_infos: list[ColumnInfo] = field(default_factory=list)

    @property
    def grouped(self) -> bool:
        return bool(self.group_by) or bool(self.aggregates)

    def arity(self) -> int:
        if self.grouped:
            return len(self.group_by) + len(self.aggregates)
        return max(len(self.select), 1)

    def output_aliases(self) -> list[str]:
        return [f"c{i}" for i in range(self.arity())]

    def render(self) -> str:
        items: list[str] = []
        if self.grouped:
            for expr in self.group_by:
                items.append(f"{expr} AS c{len(items)}")
            for agg in self.aggregates:
                items.append(agg.render(f"c{len(items)}"))
        else:
            for expr in self.select:
                items.append(f"{expr} AS c{len(items)}")
        if not items:  # minimizer emptied the list; keep the SQL valid
            items = ["count(*) AS c0"]
        sql = "SELECT "
        if self.distinct:
            sql += "DISTINCT "
        sql += ", ".join(items)
        sql += f" FROM {self.base_table} {self.base_alias}"
        for join in self.joins:
            sql += f" {join.render()}"
        if self.where:
            sql += " WHERE " + " AND ".join(self.where)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        if self.having:
            sql += " HAVING " + " AND ".join(self.having)
        return sql


@dataclass
class QuerySpec:
    """A full query: CTEs + one or more UNION ALL branches + ordering."""

    branches: list[SelectBlock]
    ctes: list[tuple[str, SelectBlock]] = field(default_factory=list)
    order_by: bool = False
    #: Only rendered together with ``order_by`` over *all* output
    #: columns: a LIMIT under a total order has a deterministic row
    #: multiset, so the oracle can compare it across plan shapes.
    limit: int | None = None
    #: Render ``limit`` without ORDER BY too.  Only set where no rewrite
    #: reorders the plan, so that every engine's emission order — which
    #: the LIMIT then observes — is the same one.
    bare_limit: bool = False
    #: The generator shape that built this spec, and how often each
    #: ``_predicate`` form was drawn for it (for coverage reports).
    shape: str = ""
    predicate_forms: Counter = field(default_factory=Counter)

    def render(self) -> str:
        parts: list[str] = []
        if self.ctes:
            rendered = ", ".join(
                f"{name} AS ({block.render()})" for name, block in self.ctes
            )
            parts.append(f"WITH {rendered}")
        parts.append(" UNION ALL ".join(block.render() for block in self.branches))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(self.branches[0].output_aliases()))
        if self.limit is not None and (self.order_by or self.bare_limit):
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def catalog_column_infos(catalog: Catalog, table: str) -> list[ColumnInfo]:
    """Column metadata (with stats-derived literal ranges) for a table."""
    infos = []
    for cdef in catalog.table(table).columns:
        stats = catalog.column_stats(table, cdef.name)
        lo = stats.min_value if stats is not None else None
        hi = stats.max_value if stats is not None else None
        infos.append(ColumnInfo(cdef.name, cdef.dtype, lo, hi))
    return infos


_SHAPES = (
    ("simple", 3.0),
    ("agg", 3.0),
    ("scalar_agg", 1.0),
    ("union", 3.0),
    ("cte_self_join", 2.0),
    ("scalar_subqueries", 2.0),
    ("groupby_join", 1.5),
    ("window", 1.0),
    ("subquery_predicate", 1.0),
    ("fact_join", 1.5),
)


class QueryGenerator:
    """Seeded random query generator over a bound catalog."""

    def __init__(self, catalog: Catalog, seed: int = 0):
        self.rng = random.Random(seed)
        self.tables: dict[str, list[ColumnInfo]] = {
            name: catalog_column_infos(catalog, name)
            for name in TABLE_POOL
            if catalog.has_table(name)
        }
        if not self.tables:
            raise ValueError("none of the fuzzer's tables are in the catalog")
        self._alias_counter = 0
        self._forms: Counter = Counter()

    # -- public API --------------------------------------------------------

    def generate(self) -> QuerySpec:
        """One random query spec (advances the seeded stream)."""
        self._alias_counter = 0
        self._forms = Counter()
        shape = self._weighted(_SHAPES)
        builder = getattr(self, f"_shape_{shape}")
        spec: QuerySpec = builder()
        spec.shape, spec.predicate_forms = shape, self._forms
        self._maybe_order(spec)
        return spec

    # -- shapes ------------------------------------------------------------

    def _shape_simple(self) -> QuerySpec:
        block, scope = self._plain_block()
        self._fill_select(block, scope)
        if self.rng.random() < 0.15:
            block.distinct = True
        return QuerySpec([block])

    def _shape_agg(self) -> QuerySpec:
        block, scope = self._plain_block()
        self._fill_group_by(block, scope)
        return QuerySpec([block])

    def _shape_scalar_agg(self) -> QuerySpec:
        block, scope = self._plain_block()
        self._fill_aggregates(block, scope, self.rng.randint(1, 3))
        return QuerySpec([block])

    def _shape_union(self) -> QuerySpec:
        """UNION ALL branches over the same table — §IV.D bait."""
        first, scope = self._plain_block(max_joins=1)
        if self.rng.random() < 0.6:
            self._fill_group_by(first, scope)
        else:
            self._fill_select(first, scope)
        branches = [first]
        for _ in range(self.rng.randint(1, 2)):
            branch = _clone_block(first)
            # Same structure, different filters: exactly what the
            # UnionAll fusion rule merges with compensations.
            branch.where = [
                self._predicate(scope) for _ in range(self.rng.randint(0, 2))
            ]
            branches.append(branch)
        return QuerySpec(branches)

    def _shape_cte_self_join(self) -> QuerySpec:
        """A CTE consumed twice — the general fusion driver."""
        cte, cte_scope = self._plain_block(max_joins=1)
        key = self._pick_column(cte_scope, numeric=True)
        cte.group_by = [key]
        self._fill_aggregates(cte, cte_scope, self.rng.randint(1, 2))
        cte.out_infos = self._grouped_out_infos(cte, cte_scope)

        name = "shared"
        left_alias, right_alias = "x", "y"
        exposed = cte.out_infos
        scope: Scope = [(left_alias, exposed), (right_alias, exposed)]
        main = SelectBlock(
            base_table=name,
            base_alias=left_alias,
            joins=[
                JoinSpec(
                    self.rng.choice(("INNER JOIN", "LEFT JOIN")),
                    name,
                    right_alias,
                    f"{left_alias}.c0 = {right_alias}.c0",
                )
            ],
        )
        main.where = [self._predicate(scope) for _ in range(self.rng.randint(0, 2))]
        self._fill_select(main, scope)
        return QuerySpec([main], ctes=[(name, cte)])

    def _shape_scalar_subqueries(self) -> QuerySpec:
        """Repeated scalar aggregate subqueries — TPC-DS Q9's shape."""
        driver = self.rng.choice(("store", "item", "customer", "date_dim"))
        driver = driver if driver in self.tables else next(iter(self.tables))
        alias = self._alias()
        scope: Scope = [(alias, self.tables[driver])]
        block = SelectBlock(base_table=driver, base_alias=alias)
        key = self._pick_column(scope, numeric=True)
        block.where = [f"{key} <= {self._literal_for(scope, key)}"]
        fact = "store_sales" if "store_sales" in self.tables else driver
        for _ in range(self.rng.randint(2, 3)):
            block.select.append(self._scalar_subquery(fact, outer_scope=scope))
        if self.rng.random() < 0.5:
            block.select.append(key)
        return QuerySpec([block])

    def _shape_groupby_join(self) -> QuerySpec:
        """Fact joined to an aggregate over itself — §IV.A bait."""
        fact = "store_sales" if "store_sales" in self.tables else next(iter(self.tables))
        edges = JOIN_EDGES.get(fact, ())
        key_col = edges[1][1] if len(edges) > 1 else self.tables[fact][0].name

        inner_alias = self._alias()
        inner_scope: Scope = [(inner_alias, self.tables[fact])]
        inner = SelectBlock(base_table=fact, base_alias=inner_alias)
        inner.group_by = [f"{inner_alias}.{key_col}"]
        self._fill_aggregates(inner, inner_scope, self.rng.randint(1, 2))
        # The §IV.A rewrite only fires for exact fusion with plain
        # aggregates, so bias toward that — but keep some masked /
        # filtered inners so the rule's *declining* path is fuzzed too.
        for agg in inner.aggregates:
            if self.rng.random() < 0.7:
                agg.mask = None
                agg.distinct = False
        inner.where = [
            self._predicate(inner_scope)
            for _ in range(1 if self.rng.random() < 0.3 else 0)
        ]
        inner.out_infos = self._grouped_out_infos(inner, inner_scope)

        outer_alias = self._alias()
        derived_alias = self._alias()
        scope: Scope = [
            (outer_alias, self.tables[fact]),
            (derived_alias, inner.out_infos),
        ]
        block = SelectBlock(
            base_table=fact,
            base_alias=outer_alias,
            joins=[
                JoinSpec(
                    "INNER JOIN",
                    None,
                    derived_alias,
                    f"{outer_alias}.{key_col} = {derived_alias}.c0",
                    query=inner,
                )
            ],
        )
        # Predicates on the fact side get pushed into the probe scan and
        # make the scans non-fusable-exactly (the rewrite then correctly
        # declines); bias toward predicates on the aggregate side, which
        # the rule peels as §IV.E residual conditions.
        pred_scope = scope if self.rng.random() < 0.4 else [scope[1]]
        block.where = [
            self._predicate(pred_scope)
            for _ in range(0 if self.rng.random() < 0.5 else self.rng.randint(1, 2))
        ]
        self._fill_select(block, scope)
        return QuerySpec([block])

    def _shape_window(self) -> QuerySpec:
        block, scope = self._plain_block(max_joins=1)
        partition = self._pick_column(scope, numeric=True)
        arg = self._pick_column(scope, numeric=True)
        func = self.rng.choice(("sum", "avg", "min", "max", "count"))
        block.select = [
            partition,
            arg,
            f"{func}({arg}) OVER (PARTITION BY {partition})",
        ]
        return QuerySpec([block])

    def _shape_subquery_predicate(self) -> QuerySpec:
        block, scope = self._plain_block(max_joins=1)
        choice = self.rng.random()
        if choice < 0.4:
            sub_table = self.rng.choice(list(self.tables))
            sub_alias = self._alias()
            sub_scope: Scope = [(sub_alias, self.tables[sub_table])]
            pred = self._predicate(sub_scope)
            block.where.append(
                f"EXISTS (SELECT 1 FROM {sub_table} {sub_alias} WHERE {pred})"
            )
        elif choice < 0.8:
            column = self._pick_column(scope, numeric=True)
            sub_table = self.rng.choice(list(self.tables))
            sub_alias = self._alias()
            sub_scope = [(sub_alias, self.tables[sub_table])]
            sub_col = self._pick_column(sub_scope, numeric=True)
            pred = self._predicate(sub_scope)
            block.where.append(
                f"{column} IN (SELECT {sub_col} FROM {sub_table} {sub_alias} "
                f"WHERE {pred})"
            )
        else:
            column = self._pick_column(scope, numeric=True)
            fact = "store_sales" if "store_sales" in self.tables else block.base_table
            sub = self._scalar_subquery(fact, outer_scope=None)
            block.where.append(f"{column} <= {sub}")
        self._fill_select(block, scope)
        return QuerySpec([block])

    def _shape_fact_join(self) -> QuerySpec:
        """A fact joined to a fact (or to itself) on a non-unique
        column, optionally with a residual between the two sides and/or
        a second equality — the many-to-many, residual and multi-key
        joins no FK→PK edge produces (TPC-DS Q95's ``ws_wh`` shape)."""
        facts = [t for t in FACT_PREFIXES if t in self.tables]
        if not facts:
            return self._shape_simple()
        left, right = self.rng.choice(facts), self.rng.choice(facts)
        la, ra = self._alias(), self._alias()
        scope: Scope = [(la, self.tables[left]), (ra, self.tables[right])]
        lp, rp = FACT_PREFIXES[left], FACT_PREFIXES[right]
        keys = self.rng.sample(FACT_KEY_SUFFIXES, k=1 if self.rng.random() < 0.7 else 2)
        on = [f"{la}.{lp}_{key} = {ra}.{rp}_{key}" for key in keys]
        if self.rng.random() < 0.6:
            a = self._pick_column(scope[:1], numeric=True)
            b = self._pick_column(scope[1:], numeric=True)
            on.append(f"{a} {self.rng.choice(('<>', '<'))} {b}")
        kind = self.rng.choice(("INNER JOIN", "LEFT JOIN"))
        block = SelectBlock(
            left, la, joins=[JoinSpec(kind, right, ra, " AND ".join(on))]
        )
        if self.rng.random() < 0.5:
            self._fill_group_by(block, scope)
            return QuerySpec([block])
        self._fill_select(block, scope)
        spec = QuerySpec([block])
        if kind == "LEFT JOIN" and self.rng.random() < 0.7:
            # An outer join's sides never commute (the costed join order
            # swaps an inner join's), so its row order is pinned.
            spec.limit, spec.bare_limit = self.rng.randint(1, 50), True
        return spec

    # -- building blocks ---------------------------------------------------

    def _alias(self) -> str:
        alias = f"t{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def _weighted(self, options) -> str:
        names = [n for n, _ in options]
        weights = [w for _, w in options]
        return self.rng.choices(names, weights=weights, k=1)[0]

    def _plain_block(self, max_joins: int = 2) -> tuple[SelectBlock, Scope]:
        """A FROM/JOIN/WHERE skeleton with an empty select list."""
        base = self.rng.choice(list(self.tables))
        alias = self._alias()
        scope: Scope = [(alias, self.tables[base])]
        block = SelectBlock(base_table=base, base_alias=alias)
        edges = [e for e in JOIN_EDGES.get(base, ()) if e[0] in self.tables]
        n_joins = self.rng.randint(0, max_joins) if edges else 0
        for edge in self.rng.sample(edges, k=min(n_joins, len(edges))):
            other, fact_key, dim_key = edge
            other_alias = self._alias()
            kind = "LEFT JOIN" if self.rng.random() < 0.3 else "INNER JOIN"
            block.joins.append(
                JoinSpec(kind, other, other_alias, f"{alias}.{fact_key} = {other_alias}.{dim_key}")
            )
            scope.append((other_alias, self.tables[other]))
        for _ in range(self.rng.randint(0, 3)):
            block.where.append(self._predicate(scope))
        return block, scope

    def _fill_select(self, block: SelectBlock, scope: Scope) -> None:
        for _ in range(self.rng.randint(1, 4)):
            block.select.append(self._select_expression(scope))
        block.out_infos = [
            ColumnInfo(f"c{i}", DataType.INTEGER) for i in range(len(block.select))
        ]

    def _fill_group_by(self, block: SelectBlock, scope: Scope) -> None:
        n_keys = self.rng.randint(1, 2)
        keys: list[str] = []
        for _ in range(n_keys):
            key = self._pick_column(scope)
            if key not in keys:
                keys.append(key)
        block.group_by = keys
        self._fill_aggregates(block, scope, self.rng.randint(1, 3))
        if self.rng.random() < 0.3:
            block.having.append(f"count(*) > {self.rng.randint(0, 3)}")
        block.out_infos = self._grouped_out_infos(block, scope)

    def _fill_aggregates(self, block: SelectBlock, scope: Scope, count: int) -> None:
        for _ in range(count):
            block.aggregates.append(self._aggregate(scope))

    def _aggregate(self, scope: Scope) -> Aggregate:
        func = self.rng.choice(("count", "count", "sum", "sum", "avg", "min", "max"))
        if func == "count" and self.rng.random() < 0.5:
            arg = None
        else:
            arg = self._pick_column(scope, numeric=func in ("sum", "avg"))
        distinct = arg is not None and self.rng.random() < 0.2
        mask = self._predicate(scope) if self.rng.random() < 0.35 else None
        return Aggregate(func, arg, distinct, mask)

    def _grouped_out_infos(self, block: SelectBlock, scope: Scope) -> list[ColumnInfo]:
        infos: list[ColumnInfo] = []
        for i, key in enumerate(block.group_by):
            found = self._info_of(scope, key)
            infos.append(
                ColumnInfo(f"c{i}", found.dtype if found else DataType.INTEGER,
                           found.lo if found else None, found.hi if found else None)
            )
        for j, agg in enumerate(block.aggregates):
            pos = len(block.group_by) + j
            if agg.func == "count":
                infos.append(ColumnInfo(f"c{pos}", DataType.INTEGER, 0, 1000))
            elif agg.func == "avg":
                infos.append(ColumnInfo(f"c{pos}", DataType.DOUBLE, 0, 1000))
            else:
                found = self._info_of(scope, agg.arg) if agg.arg else None
                infos.append(
                    ColumnInfo(
                        f"c{pos}",
                        found.dtype if found else DataType.INTEGER,
                        found.lo if found else None,
                        found.hi if found else None,
                    )
                )
        return infos

    def _info_of(self, scope: Scope, rendered: str | None) -> ColumnInfo | None:
        if rendered is None:
            return None
        for alias, infos in scope:
            for info in infos:
                if f"{alias}.{info.name}" == rendered:
                    return info
        return None

    def _scalar_subquery(self, table: str, outer_scope: Scope | None) -> str:
        """``(SELECT agg FROM fact WHERE …)``, occasionally correlated
        with the outer scope (decorrelation + fusion bait)."""
        alias = self._alias()
        scope: Scope = [(alias, self.tables[table])]
        func = self.rng.choice(("count", "sum", "avg", "min", "max"))
        if func == "count" and self.rng.random() < 0.5:
            agg = "count(*)"
        else:
            agg = f"{func}({self._pick_column(scope, numeric=True)})"
        preds = [self._predicate(scope) for _ in range(self.rng.randint(1, 2))]
        if outer_scope is not None and self.rng.random() < 0.3:
            outer_alias, outer_infos = outer_scope[0]
            outer_nums = [i for i in outer_infos if i.is_numeric]
            inner_nums = [i for _, infos in scope for i in infos if i.is_numeric]
            if outer_nums and inner_nums:
                o = self.rng.choice(outer_nums)
                i = self.rng.choice(inner_nums)
                preds.append(f"{alias}.{i.name} = {outer_alias}.{o.name}")
        return (
            f"(SELECT {agg} FROM {table} {alias} WHERE "
            + " AND ".join(preds)
            + ")"
        )

    # -- expressions -------------------------------------------------------

    def _pick_column(self, scope: Scope, numeric: bool | None = None) -> str:
        """A rendered column reference, biased toward NULL-salted
        columns (three-valued-logic coverage)."""
        candidates: list[tuple[str, ColumnInfo]] = []
        for alias, infos in scope:
            for info in infos:
                if numeric is True and not info.is_numeric:
                    continue
                if numeric is False and info.dtype is not DataType.STRING:
                    continue
                candidates.append((alias, info))
        if not candidates:
            alias, infos = scope[0]
            return f"{alias}.{infos[0].name}"
        nullable = [c for c in candidates if c[1].name in NULLABLE_COLUMNS]
        if nullable and self.rng.random() < 0.3:
            alias, info = self.rng.choice(nullable)
        else:
            alias, info = self.rng.choice(candidates)
        return f"{alias}.{info.name}"

    def _literal_for(self, scope: Scope, rendered: str) -> str:
        info = self._info_of(scope, rendered)
        return self._literal(info)

    def _literal(self, info: ColumnInfo | None) -> str:
        if info is None or not isinstance(info.lo, (int, float)) or not isinstance(
            info.hi, (int, float)
        ):
            lo, hi = 0, 100
        else:
            lo, hi = info.lo, info.hi
        if info is not None and info.dtype is DataType.DOUBLE:
            return str(round(self.rng.uniform(float(lo), float(hi)), 2))
        lo_i, hi_i = int(lo), max(int(lo), int(hi))
        return str(self.rng.randint(lo_i, hi_i))

    def _string_literal(self, info: ColumnInfo) -> str:
        sample = info.lo if isinstance(info.lo, str) else "A"
        sample = "".join(ch for ch in sample if ch.isalnum() or ch == " ") or "A"
        return f"'{sample}'"

    def _select_expression(self, scope: Scope) -> str:
        roll = self.rng.random()
        if roll < 0.55:
            return self._pick_column(scope)
        if roll < 0.7:
            a = self._pick_column(scope, numeric=True)
            b = self._pick_column(scope, numeric=True)
            op = self.rng.choice(("+", "-", "*"))
            return f"{a} {op} {b}"
        if roll < 0.85:
            a = self._pick_column(scope, numeric=True)
            return f"{a} {self.rng.choice(('+', '*'))} {self.rng.randint(1, 9)}"
        pred = self._predicate(scope)
        value = self._pick_column(scope, numeric=True)
        default = "NULL" if self.rng.random() < 0.5 else "0"
        return f"CASE WHEN {pred} THEN {value} ELSE {default} END"

    def _predicate(self, scope: Scope, depth: int = 0) -> str:
        forms = [
            ("cmp", 4.0),
            ("is_null", 1.5),
            ("between", 1.0),
            ("in_list", 1.0),
            ("like", 0.8),
            ("col_col", 1.0),
            ("null_cmp", 0.3),
        ]
        if depth < 1:
            forms += [("not", 0.7), ("or", 1.2), ("bucket", 0.8)]
        form = self._weighted(forms)
        self._forms[form] += 1
        if form == "cmp":
            col = self._pick_column(scope, numeric=True)
            op = self.rng.choice(("=", "<>", "<", "<=", ">", ">="))
            return f"{col} {op} {self._literal_for(scope, col)}"
        if form == "is_null":
            col = self._pick_column(scope)
            negated = " NOT" if self.rng.random() < 0.4 else ""
            return f"{col} IS{negated} NULL"
        if form == "between":
            col = self._pick_column(scope, numeric=True)
            a = self._literal_for(scope, col)
            b = self._literal_for(scope, col)
            lo, hi = sorted((a, b), key=float)
            return f"{col} BETWEEN {lo} AND {hi}"
        if form == "in_list":
            col = self._pick_column(scope, numeric=True)
            items = [self._literal_for(scope, col) for _ in range(self.rng.randint(1, 3))]
            if self.rng.random() < 0.3:
                items.append("NULL")
            return f"{col} IN ({', '.join(items)})"
        if form == "like":
            for alias, infos in scope:
                strings = [i for i in infos if i.dtype is DataType.STRING]
                if strings:
                    info = self.rng.choice(strings)
                    sample = self._string_literal(info)[1:-1]
                    pattern = self.rng.choice(
                        (f"{sample[:1]}%", f"%{sample[1:3]}%", f"%{sample[-1:]}")
                    )
                    return f"{alias}.{info.name} LIKE '{pattern}'"
            return self._predicate(scope, depth + 1)  # no string columns
        if form == "col_col":
            a = self._pick_column(scope, numeric=True)
            b = self._pick_column(scope, numeric=True)
            op = self.rng.choice(("=", "<", "<=", ">", ">=", "<>"))
            return f"{a} {op} {b}"
        if form == "null_cmp":
            col = self._pick_column(scope, numeric=True)
            return f"{col} {self.rng.choice(('=', '<>', '<'))} NULL"
        if form == "not":
            return f"NOT ({self._predicate(scope, depth + 1)})"
        if form == "bucket":
            # TPC-DS Q28's mask: a range that decides most rows, then a
            # disjunction only the rows inside it need (the block
            # engines evaluate AND/OR by selection).
            col = self._pick_column(scope, numeric=True)
            a = self._literal_for(scope, col)
            b = self._literal_for(scope, col)
            lo, hi = sorted((a, b), key=float)
            inner = [self._predicate(scope, depth + 1) for _ in range(3)]
            return f"({col} BETWEEN {lo} AND {hi} AND ({' OR '.join(inner)}))"
        # or
        left = self._predicate(scope, depth + 1)
        right = self._predicate(scope, depth + 1)
        return f"({left} OR {right})"

    def _maybe_order(self, spec: QuerySpec) -> None:
        if self.rng.random() < 0.4:
            spec.order_by = True
            if self.rng.random() < 0.4:
                spec.limit = self.rng.randint(1, 50)


def _clone_block(block: SelectBlock) -> SelectBlock:
    import copy

    return copy.deepcopy(block)
