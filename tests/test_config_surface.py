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
from repro.graph import complete_graph
from repro.runtime.executor import JobSpec
from repro.service import GraphContext, SubgraphService, running_service
from repro.service.server import (
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


def count_parser():
    subparsers = _build_parser()._subparsers._group_actions[0]
    return subparsers.choices["count"]


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


def test_every_surface_defaults_to_the_same_config():
    default = ExecutionConfig()
    graph = complete_graph(4)
    assert PSgL(graph).config == default
    assert BSPEngine(graph, PSgL(graph).partition).config == default
    assert JobSpec.__dataclass_fields__["config"].default == default
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
    # JobSpec keeps exactly one: the *resolved* plane, which differs from
    # config.wire when the program forced the fallback.
    assert set(JobSpec.__dataclass_fields__) & set(FIELDS) == {"wire"}


def _cli_flags(overrides):
    """``overrides`` as ``psgl count`` flags, or None when argparse
    itself (exit 2) would refuse them: no such flag, a value outside the
    flag's choices or type."""
    flags = []
    for name, value in overrides.items():
        meta = FIELDS[name].metadata
        if not meta["cli"] or type(value) is not meta["kind"]:
            return None
        if meta["choices"] and value not in meta["choices"]:
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
