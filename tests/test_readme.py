import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    # the README's "Library sketch" block imports each name from its owning module
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("1.644934066848226436472415166646\n")
