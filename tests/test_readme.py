"""The README's Python examples run as written against the package."""

from pathlib import Path
import re

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_its_two_examples():
    assert len(_python_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["library-use", "closed-forms"])
def test_readme_example_runs(index, capsys):
    block = _python_blocks()[index]
    exec(compile(block, f"{README.name} python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out.strip()
