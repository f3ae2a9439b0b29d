"""README.md's first "Library use" code block runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block after the "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes tap.log to the working directory
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "1\npass\n"
    assert (tmp_path / "tap.log").read_text(encoding="utf-8") == (
        "lightContainer.node10.switchLightON.info.Light.act.58.lightActuator\t0\ton\n")
