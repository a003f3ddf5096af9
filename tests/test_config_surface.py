"""Surface-drift guard: one declaration, every surface agrees with it.

``ExecutionConfig`` is the only place an execution knob is declared.
The ``psgl count`` parser and the service's spec defaults are *rendered*
from it, and ``docs/api.md`` carries the one human-readable table.  This
file fails when any of them stops naming the same knobs with the same
defaults — so a new field is covered by existing in the dataclass, and a
forgotten hand-kept copy fails CI instead of drifting.

Also here, because it is the same promise seen from the other side:
every illegal value or combination (``tests/parity.py::ILLEGAL``) is one
``EngineError`` at construction, and the CLI (exit 5) and the service
(HTTP 400) turn it into their own refusal before any work starts.  The
legal half of the space is drawn by ``tests/test_properties.py``.
"""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.bench.runner import run_all
from repro.bsp import BSPEngine, ExecutionConfig
from repro.cli import (
    _build_parser,
    _cmd_count,
    _count_execution_fields,
    main,
)
from repro.core import PSgL
from repro.exceptions import EngineError
from repro.graph import complete_graph
from repro.runtime.executor import JobSpec
from repro.service import GraphContext, SubgraphService, running_service
from repro.service.server import (
    BUDGET_FIELDS,
    CACHE_PARAM_FIELDS,
    CLIENT_EXECUTION_FIELDS,
    SPEC_DEFAULTS,
)

from .parity import ILLEGAL, assert_illegal

FIELDS = {spec.name: spec for spec in dataclasses.fields(ExecutionConfig)}
API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def documented_knobs():
    """Rows of the knob table in docs/api.md: name -> (default, flag, settable)."""
    rows = {}
    for line in API_MD.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"`\w+`", cells[0]):
            rows[cells[0].strip("`")] = (
                ast.literal_eval(cells[1].strip("`")),
                cells[3].strip("`"),
                cells[4].startswith("yes"),
            )
    return rows


def subcommand_parser(name):
    subparsers = _build_parser()._subparsers._group_actions[0]
    return subparsers.choices[name]


def count_parser():
    return subcommand_parser("count")


def test_docs_table_names_every_field_with_its_default():
    rows = documented_knobs()
    assert list(rows) == list(FIELDS)
    for name, (default, flag, settable) in rows.items():
        assert default == FIELDS[name].default, name
        expected_flag = "--" + name.replace("_", "-")
        assert flag == (expected_flag if FIELDS[name].metadata["cli"] else "—"), name
        assert settable == (name in CLIENT_EXECUTION_FIELDS), name


def test_count_flags_are_the_cli_fields():
    actions = {action.dest: action for action in count_parser()._actions}
    for name, spec in FIELDS.items():
        if not spec.metadata["cli"]:
            assert name not in actions, f"hand-written flag for {name}"
            continue
        action = actions[name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert action.default == spec.default, name
        if spec.metadata["kind"] is not bool:
            assert action.type is spec.metadata["kind"], name
        if spec.metadata["choices"]:
            assert tuple(action.choices) == spec.metadata["choices"], name


def test_service_allow_list_and_defaults_come_from_the_dataclass():
    assert set(CLIENT_EXECUTION_FIELDS) < set(FIELDS)
    for name in CLIENT_EXECUTION_FIELDS:
        assert SPEC_DEFAULTS[name] == FIELDS[name].default, name
    # No execution field is ever part of a result-cache key.
    assert not set(CACHE_PARAM_FIELDS) & set(FIELDS)
    assert set(SPEC_DEFAULTS) & set(FIELDS) == set(CLIENT_EXECUTION_FIELDS)


def test_budget_names_map_onto_the_budget_fields():
    """The service's client names for the budget (``BUDGET_FIELDS``) are
    spelt once: they map onto exactly the four budget fields of the
    dataclass, the docs table names the same pairs, and every ``psgl
    serve --max-*`` flag is one of them or an admission-control knob."""
    budget_fields = {name for name in FIELDS if "budget" in name}
    assert len(budget_fields) == 4
    assert sorted(BUDGET_FIELDS.values()) == sorted(budget_fields)
    documented = {}  # the "service client may set" column's budget names
    for line in API_MD.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5:
            for name in re.findall(r"`budget\.(\w+)`", cells[4]):
                documented[name] = cells[0].strip("`")
    assert documented == BUDGET_FIELDS
    service_params = inspect.signature(SubgraphService.__init__).parameters
    budget_flags = []
    for action in subcommand_parser("serve")._actions:
        if action.option_strings[0].startswith("--max-"):
            if action.dest in BUDGET_FIELDS:
                budget_flags.append(action.dest)
            else:
                assert action.dest in service_params, action.option_strings
    assert budget_flags == ["max_supersteps", "max_wall_seconds", "max_live_gpsis"]


def test_every_surface_defaults_to_the_same_config():
    default = ExecutionConfig()
    graph = complete_graph(4)
    assert PSgL(graph).config == default
    assert BSPEngine(graph, PSgL(graph).partition).config == default
    args = count_parser().parse_args(["--pattern", "PG1", "--dataset", "x"])
    assert (
        ExecutionConfig.from_mapping(
            {spec.name: getattr(args, spec.name) for spec in _count_execution_fields()}
        )
        == default
    )
    service = SubgraphService(GraphContext(graph))
    try:
        spec, *_ = service._normalize({"pattern": "PG1"})
        assert service._config_for(spec) == default
    finally:
        service.close()


def test_no_signature_re_declares_a_knob():
    """The pass-through era is over: these callables take a config (or
    ``**overrides``), never a knob by name."""
    for func in (
        BSPEngine.__init__,
        PSgL.__init__,
        run_all,
        _cmd_count,
        SubgraphService._normalize,
        SubgraphService._run_job,
    ):
        named = set(inspect.signature(func).parameters) & set(FIELDS)
        assert not named, f"{func.__qualname__} re-declares {sorted(named)}"
    # Nor does the job spec: no executor reads a knob off it.
    assert not set(JobSpec.__dataclass_fields__) & set(FIELDS)


def _cli_flags(overrides):
    """``overrides`` as ``psgl count`` flags, or None when argparse
    itself (exit 2) would refuse them: no such field or flag, a value
    outside the flag's choices or type."""
    actions = {action.dest: action for action in count_parser()._actions}
    flags = []
    for name, value in overrides.items():
        if name not in FIELDS:
            return None
        meta = FIELDS[name].metadata
        if not meta["cli"] or type(value) is not meta["kind"]:
            return None
        if actions[name].choices and value not in actions[name].choices:
            return None
        flag = "--" + name.replace("_", "-")
        flags += [flag] if meta["kind"] is bool else [flag, str(value)]
    return flags


@pytest.fixture(scope="module")
def http_service():
    with running_service(complete_graph(6)) as (client, _):
        yield client


class TestIllegalConfigurations:
    """The complement of the legal configurations ``test_properties.py``
    draws: each row is one ``EngineError`` raised at construction, and
    every surface turns it into its own refusal before any work starts."""

    @pytest.mark.parametrize("overrides,match", ILLEGAL)
    def test_constructors_refuse(self, overrides, match):
        assert_illegal(overrides, match)

    @pytest.mark.parametrize(
        "overrides,match",
        [row for row in ILLEGAL if _cli_flags(row[0]) is not None],
    )
    def test_cli_exits_5_before_reading_the_graph(self, overrides, match, capsys):
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/no/such/file.txt"]
            + _cli_flags(overrides)
        )
        err = capsys.readouterr().err
        # Exit 5 (EngineError), not 4: the missing file was never opened.
        assert code == 5
        assert err.startswith("psgl: error:") and re.search(match, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides,match", ILLEGAL)
    def test_service_answers_400(self, http_service, overrides, match):
        status, text = http_service._request(
            "POST", "/jobs", {"pattern": "PG1", **overrides}
        )
        error = json.loads(text)["error"]
        assert (status, error["type"]) == (400, "QuerySpecError")
        if set(overrides) <= set(CLIENT_EXECUTION_FIELDS):
            assert re.search(match, error["message"])
        else:  # server-owned fields are not the client's to set
            assert "unknown spec fields" in error["message"]


class TestOverrideNames:
    """An override key that is not a field is an ``EngineError`` on every
    surface that takes one, as an illegal value is."""

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(backnd="thread"), r"unknown backnd: .*known: \['backend'"),
            (dict(shuffle="pipelined"), "shuffle is retired: a barrier ships"),
            (dict(chunk_gpsis=64), "watermarks are retired: a barrier ships"),
            (dict(chunk_bytes=4096), "watermarks are retired: a barrier ships"),
            (dict(kernel="native"), "native tier is retired: expansion and"),
            (dict(steal=True), "work stealing is retired: process lanes"),
            (dict(steal_tasks=8), "steal tasks are retired with work stealing"),
            (dict(backend="thread"), "thread backend is retired: process lanes"),
            (dict(max_supersteps=5), "superstep cap is superstep_budget, default"),
        ],
        ids=[
            "misspelt", "shuffle", "chunk_gpsis", "chunk_bytes", "kernel",
            "steal", "steal_tasks", "thread", "max_supersteps",
        ],
    )
    def test_refused_by_name(self, overrides, match):
        """Regression: ``PSgL(g, backnd="thread")`` raised a raw
        ``TypeError`` from ``dataclasses.replace``.  The argparse/JSON
        path says the same (the other constructors: ``ILLEGAL``)."""
        for construct in (
            lambda: PSgL(complete_graph(4), **overrides),
            lambda: ExecutionConfig.from_mapping(overrides),
        ):
            with pytest.raises(EngineError, match=match):
                construct()

    def test_retired_superstep_cap_is_refused_by_the_service(self, http_service):
        """``max_supersteps`` is the client's name for a *budget* axis; at
        the top of a spec it is the retired field, refused with the hint."""
        status, text = http_service._request(
            "POST", "/jobs", {"pattern": "PG1", "max_supersteps": 5}
        )
        error = json.loads(text)["error"]
        assert (status, error["type"]) == (400, "QuerySpecError")
        assert "unknown spec fields ['max_supersteps']" in error["message"]
        assert "superstep cap is superstep_budget" in error["message"]

    def test_retired_flags_are_gone(self, capsys):
        """The retired fields' flags went with them: argparse refuses
        ``--shuffle`` (exit 2) before anything runs, and ``--backend``
        offers only the two backends."""
        for flags, refusal in (
            (["--shuffle", "pipelined"], "unrecognized arguments"),
            (["--chunk-gpsis", "64"], "unrecognized arguments"),
            (["--kernel", "native"], "unrecognized arguments"),
            (["--steal"], "unrecognized arguments"),
            (["--steal-tasks", "8"], "unrecognized arguments"),
            (["--spill-dir", "x"], "unrecognized arguments"),
            (["--memory-watermark-bytes", "1"], "unrecognized arguments"),
            (["--backend", "thread"], "invalid choice: 'thread'"),
            (["--backend", "gpu-cluster"], "invalid choice: 'gpu-cluster'"),
        ):
            with pytest.raises(SystemExit) as refused:
                main(["count", "--pattern", "PG1", "--dataset", "x"] + flags)
            assert refused.value.code == 2
            assert refusal in capsys.readouterr().err
