"""The README's python blocks run as written and print what they say.

Each ``print`` line of a block ends in a comment whose text, up to the
first double space, is the line the call prints.
"""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def expected_prints(source: str) -> list[str]:
    lines = [line for line in source.splitlines() if line.startswith("print(")]
    assert all("#" in line for line in lines), "every print needs its output as a comment"
    return [line.split("#", 1)[1].strip().split("  ")[0] for line in lines]


def test_quickstart_prints_are_checked():
    quickstart = BLOCKS[0]
    assert "groups(" in quickstart
    assert expected_prints(quickstart) == ["True", "TransversalLogical", "[((1,), 3)]"]


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_prints_its_comments(index):
    source = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, f"README.md python block {index}", "exec"), {})
    assert out.getvalue().splitlines() == expected_prints(source)
