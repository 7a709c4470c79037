"""The README's library example runs as written, and its lists match the code."""

import argparse
import ast
import json
import re
from pathlib import Path

import numpy as np

import robosym
from robosym.augment import FIELD_KINDS, load_group_bundle, load_schema, resolve_schema, write_csv
from robosym.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}: Library example", "exec"), {})
    assert capsys.readouterr().out.startswith("pass: ")


def test_schema_file_paragraph_lists_every_field_kind_in_order():
    paragraph = README.read_text().split("**Schema file**", 1)[1].split("\n\n", 1)[0]
    listing = paragraph.split("field kinds", 1)[1].split("Field dims", 1)[0]
    assert re.findall(r"`([a-z0-9]+_\w+)`", listing) == list(FIELD_KINDS)


def _commands(parser, words=("robosym",)):
    """Every command ``parser`` runs, as typed: ``robosym net verify``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(words)]
    return [c for name, sub in subs[0].choices.items() for c in _commands(sub, (*words, name))]


def test_cli_section_shows_every_command():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = _commands(build_parser())
    assert "robosym net demo-train" in commands and "robosym robot verify" in commands
    assert [c for c in commands if not re.search(rf"^{re.escape(c)}( |$)", block, re.M)] == []


def _caps_table():
    return README.read_text().split("## Caps", 1)[1].split("\n## ", 1)[0]


def _module_constants(suffix):
    """Every module-level constant whose name ends in ``suffix`` (found by ``ast``), as
    ``module.NAME`` -> the expression it is assigned."""
    return {f"{path.stem}.{target.id}": node.value
            for path in Path(robosym.__file__).parent.glob("*.py")
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id.endswith(suffix)}


def test_caps_table_names_every_cap_constant():
    defined = set(_module_constants("_CAP"))
    assert defined == {"basis.ORACLE_CAP", "groups.DEFAULT_ORDER_CAP", "groups.TRACE_CAP", "rigid.VALUE_CAP"}
    rows = [line.split(" | ")[0] for line in _caps_table().splitlines() if line.startswith("| ")]
    assert [name for name in sorted(defined) if not any(f"`{name}`" in cap for cap in rows)] == []


def test_oracle_caps_row_states_no_stack_condition():
    row = next(line for line in _caps_table().splitlines() if "`basis.ORACLE_CAP`" in line)
    assert row.startswith("| m·n ≤ 4096 (`basis.ORACLE_CAP`) | ") and "stack" not in row


def test_readme_names_every_tolerance_with_its_value():
    defined = {name: ast.literal_eval(value) for name, value in _module_constants("_TOL").items()}
    assert defined == {"groups.PLAN_TOL": 1e-12, "rigid.CANDIDATE_TOL": 1e-9, "groups.ORACLE_TOL": 1e-10}
    text = README.read_text()
    stated = {name: {float(v) for v in re.findall(rf"`{re.escape(name)}` = (\d[\d.]*(?:e[+-]?\d+)?)", text)}
              for name in defined}
    assert stated == {name: {value} for name, value in defined.items()}


def test_augment_report_keys_are_listed(tmp_path):
    sentence = README.read_text().split("The `augment --json` report holds", 1)[1].split("`basis --oracle`", 1)[0]
    fixtures = README.parent / "tests" / "fixtures"
    group, schema = str(fixtures / "k4_solo.json"), str(fixtures / "com_schema.json")
    bundle = load_group_bundle(group)
    names = list(resolve_schema(load_schema(schema), bundle.joint_rep, bundle.isometries,
                                bundle.leg_perm).column_names())
    data, out = tmp_path / "data.csv", tmp_path / "out.csv"
    write_csv(str(data), names, np.ones((2, len(names))))
    assert main(["augment", "--group", group, "--schema", schema, "--in", str(data), "--out", str(out), "--json"]) == 0
    report = json.loads((tmp_path / "out.csv.report.json").read_text())
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(report)
