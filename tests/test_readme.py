"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(block, scope)
    assert scope["fg"].order == 1
    assert scope["cover"].cover.n == 3
