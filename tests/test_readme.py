"""The README's library sketch runs as printed."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    sketch = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    exec(compile(code, f"{README}:library-sketch", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(math.isfinite(float(x)) for x in printed)
