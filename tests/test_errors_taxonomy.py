"""Error taxonomy: every public error class is reachable through
``Session.execute`` on real SQL, carries an actionable message, and
derives from :class:`~repro.errors.ReproError` — the single type the
CLI (and any embedding application) needs to catch.
"""

from __future__ import annotations

import inspect

import pytest

import repro.errors as errors_module
from repro.algebra.expressions import ColumnRef, Comparison, integer
from repro.algebra.operators import Filter
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.catalog.catalog import ColumnDef, TableDef
from repro.cli import exit_code_for, main
from repro.engine.session import Session
from repro.errors import (
    AdmissionRejectedError,
    BindingError,
    CatalogError,
    DataCorruptionError,
    ExecutionError,
    OptimizerError,
    PlanError,
    QueryCancelledError,
    QueryQueueTimeoutError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    SqlSyntaxError,
    StorageError,
    TransientReadError,
)
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.rewrites.simplify import Cleanup
from repro.storage.columnar import Store
from repro.storage.faults import FaultInjector

from tests.conftest import simple_table


def _store():
    store = Store()
    store.put(
        simple_table(
            "people",
            [("id", DataType.INTEGER), ("age", DataType.INTEGER)],
            [(1, 30), (2, 40), (3, 40)],
            primary_key=("id",),
        )
    )
    return store


@pytest.fixture()
def session():
    return Session(_store())


# -- hierarchy --------------------------------------------------------------


def test_every_public_error_derives_from_repro_error():
    classes = [
        obj
        for name, obj in vars(errors_module).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and not name.startswith("_")
    ]
    assert len(classes) >= 13
    for cls in classes:
        assert issubclass(cls, ReproError), cls
    # The storage sub-hierarchy distinguishes retryable from fatal.
    assert issubclass(TransientReadError, StorageError)
    assert issubclass(DataCorruptionError, StorageError)
    assert not issubclass(QueryTimeoutError, StorageError)


# -- one real-SQL trigger per class -----------------------------------------


def test_sql_syntax_error(session):
    with pytest.raises(SqlSyntaxError, match="line 1"):
        session.execute("SELEC 1")


def test_binding_error_unknown_column(session):
    with pytest.raises(BindingError, match="ghost"):
        session.execute("SELECT ghost FROM people")


def test_binding_error_unknown_table(session):
    with pytest.raises(BindingError, match="missing_table"):
        session.execute("SELECT id FROM missing_table")


#: Operands whose types cannot meet: constant folding used to crash on
#: the first two with a raw TypeError, and the third returned no rows.
_MIXED_TYPES = [
    "SELECT count(*) FROM store WHERE 'a' < 1",
    "SELECT count(*) FROM store WHERE 'a' + 1 > 0",
    "SELECT count(*) FROM store WHERE s_store_name = 1",
]


@pytest.mark.parametrize("engine", ["row", "batch"])
@pytest.mark.parametrize("sql", _MIXED_TYPES)
def test_binding_error_mixed_operand_types(tpcds_store, engine, sql):
    session = Session(tpcds_store, OptimizerConfig(engine=engine))
    with pytest.raises(BindingError, match="type mismatch"):
        session.execute(sql)


@pytest.mark.parametrize("sql", _MIXED_TYPES)
def test_cli_mixed_operand_types_exit_as_binding_errors(sql, capsys):
    assert main(["--scale", "0.01", sql]) == exit_code_for(BindingError("x"))
    assert capsys.readouterr().err.startswith("error: type mismatch")


def test_catalog_error_registered_but_unstored(session):
    session.catalog.register(TableDef("ghost_t", (ColumnDef("x", DataType.INTEGER),)))
    with pytest.raises(CatalogError, match="no stored data"):
        session.execute("SELECT x FROM ghost_t")


def test_execution_error_scalar_subquery_cardinality(session):
    with pytest.raises(ExecutionError, match="more than one row"):
        session.execute("SELECT (SELECT id FROM people) AS x")


def test_optimizer_error_buggy_pass(session, monkeypatch):
    monkeypatch.setattr(Cleanup, "run", lambda self, plan, ctx: None)
    with pytest.raises(OptimizerError, match="returned None"):
        session.execute("SELECT id FROM people")


def test_plan_error_dangling_column_names_the_pass(monkeypatch):
    # A pass that leaves a reference to a column nothing produces: under
    # validate_plans the validator's PlanError surfaces through the
    # pipeline, which names the pass.
    original = Cleanup.run
    ghost = Column(10**6, "ghost", DataType.INTEGER)

    def sabotage(self, plan, ctx):
        plan = original(self, plan, ctx)
        return Filter(plan, Comparison(">", ColumnRef(ghost), integer(0)))

    monkeypatch.setattr(Cleanup, "run", sabotage)
    session = Session(_store(), OptimizerConfig(validate_plans=True))
    with pytest.raises(OptimizerError, match="'cleanup'.*ghost") as info:
        session.execute("SELECT age, count(*) AS n FROM people GROUP BY age")
    assert isinstance(info.value.__cause__, PlanError)


def test_transient_read_error_when_retries_disabled():
    store = _store()
    store.fault_injector = FaultInjector(fault_rate=1.0)
    session = Session(store, OptimizerConfig(max_retries=0))
    with pytest.raises(TransientReadError, match="--retries"):
        session.execute("SELECT sum(age) FROM people")


def test_data_corruption_error_names_the_chunk():
    store = _store()
    store.fault_injector = FaultInjector(seed=7)
    store.fault_injector.corrupt_chunk("people", 0, "age")
    session = Session(store)
    with pytest.raises(DataCorruptionError, match="people.age"):
        session.execute("SELECT sum(age) FROM people")


def test_query_timeout_error():
    session = Session(_store(), OptimizerConfig(timeout_ms=0))
    with pytest.raises(QueryTimeoutError, match="deadline"):
        session.execute("SELECT sum(age) FROM people")


def test_query_cancelled_error():
    session = Session(_store())
    session.cancel()
    with pytest.raises(QueryCancelledError, match="cancelled"):
        session.execute("SELECT sum(age) FROM people")


def test_resource_exhausted_error():
    session = Session(_store(), OptimizerConfig(max_state_rows=1))
    with pytest.raises(ResourceExhaustedError, match="max_state_rows"):
        session.execute("SELECT age, count(*) AS n FROM people GROUP BY age")


# -- the server-only errors, through the service boundary -------------------
#
# Admission and queue-timeout errors cannot happen in a bare session;
# they are raised by the serving layer around it.  Each is reached here
# with real SQL through the public QueryService API.


def _service(**kw):
    from repro.server.service import QueryService, ServiceConfig

    defaults = dict(
        base=OptimizerConfig(engine="batch"),
        dispatchers=1,
    )
    defaults.update(kw)
    return QueryService(_store(), ServiceConfig(**defaults))


def test_admission_rejected_error_through_service():
    with _service(max_queue_depth=0) as service:
        with pytest.raises(AdmissionRejectedError, match="retry") as excinfo:
            service.submit("SELECT sum(age) FROM people")
        assert excinfo.value.retry_after_ms > 0


def test_query_queue_timeout_error_through_service(monkeypatch):
    import repro.server.service as service_module

    monkeypatch.setattr(service_module, "QUEUE_TIMEOUT_MS", 0.0)
    with _service() as service:
        ticket = service.submit("SELECT sum(age) FROM people")
        with pytest.raises(QueryQueueTimeoutError, match="queue"):
            ticket.result(30.0)


# -- the CLI catches exactly ReproError -------------------------------------

_CLI_FAILURES = [
    (["SELEC 1"], 1),
    (["SELECT ghost FROM reason"], 1),
    (["--timeout-ms", "0", "SELECT count(*) FROM reason"], 3),
    (["--fault-rate", "1.0", "--retries", "0", "--scale", "0.01",
      "SELECT max(r_reason_sk) FROM reason"], 1),
]


@pytest.mark.parametrize("argv,code", _CLI_FAILURES)
def test_cli_reports_structured_error(argv, code, capsys):
    base = [] if "--scale" in argv else ["--scale", "0.01"]
    assert main(base + argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_exit_codes_distinguish_error_classes():
    """Scripted callers (and the chaos CI job) branch on exit codes, so
    the mapping is part of the public contract."""
    expected = {
        QueryTimeoutError: 3,
        QueryCancelledError: 4,
        ResourceExhaustedError: 5,
        DataCorruptionError: 6,
    }
    for klass, code in expected.items():
        assert exit_code_for(klass("boom")) == code, klass
    # Everything else in the taxonomy is the generic failure — the
    # service's admission and queue errors included, which no CLI run
    # raises (their old codes 7 and 8 stay unassigned).
    generic = (SqlSyntaxError, BindingError, ExecutionError, ReproError)
    for klass in (*generic, AdmissionRejectedError, QueryQueueTimeoutError):
        assert exit_code_for(klass("boom")) == 1, klass
    # Codes never collide with each other or with 0/1/2 (success,
    # generic error, --compare disagreement).
    codes = list(expected.values())
    assert len(set(codes)) == len(codes)
    assert not {0, 1, 2} & set(codes)


def test_cli_does_not_mask_non_repro_errors(monkeypatch):
    # Programming errors must escape the ReproError boundary so they
    # fail loudly instead of being reported as query errors.
    monkeypatch.setattr(Session, "execute", lambda self, sql: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["--scale", "0.01", "SELECT 1"])
