"""README's code must run against the library as it stands."""

import math
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_api_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick API tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, f"{README.name}, Quick API tour", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("(128, 10) ")
    beta, objective = (float(v) for v in out.split(") ", 1)[1].split())
    assert beta > 0 and math.isfinite(objective) and objective > 0
