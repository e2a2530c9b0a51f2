"""The README's library quick start runs as written, so it names only
functions the package still exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs():
    section = README.read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["means"]) == 21
