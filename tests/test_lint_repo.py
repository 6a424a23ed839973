"""The config-caller check of ``benchmarks/lint_repo.py``: a field
counts as set only where a caller sets it, not where code forwards it."""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

from benchmarks import lint_repo


@dataclass
class DemoConfig:
    by_constructor: int = 0
    by_replace: int = 0
    by_dataclasses_replace: int = 0
    by_dict_key: int = 0
    forwarded: int = 0
    by_other_config: int = 0


@dataclass
class OtherConfig:
    by_other_config: int = 0


CORPUS = textwrap.dedent(
    """\
    import dataclasses
    from dataclasses import replace

    config = DemoConfig(by_constructor=1)
    config = replace(config, by_replace=2)
    config = dataclasses.replace(config, by_dataclasses_replace=3)
    options = {"by_dict_key": 4}
    pool = Pool(forwarded=config.forwarded)
    other = OtherConfig(by_other_config=5)
    """
)


def test_forwarded_field_is_flagged_and_setters_are_not():
    assert lint_repo.unset_config_fields([CORPUS], (DemoConfig, OtherConfig)) == [
        "DemoConfig.forwarded",
        "DemoConfig.by_other_config",
    ]


def test_every_config_field_of_this_tree_has_a_caller():
    assert lint_repo.lint_config_callers() == []
