import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("source", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
