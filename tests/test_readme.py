"""The README's library example runs as written."""

import re
from pathlib import Path

from robosym.augment import FIELD_KINDS

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
