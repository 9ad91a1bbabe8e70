"""The README's python examples run, and the trusted-base line counts its
kernel bullet states are the modules' own, so a stale README fails here."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks, "README.md has no python block"
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), {})


def test_readme_states_the_trusted_base_line_counts():
    # A change to kernel.py, formula.py or sequent.py updates them by hand.
    m = re.search(r"`kernel\.py` (\d+) lines, `formula\.py` (\d+)\s+and `sequent\.py` (\d+)",
                  README)
    assert m, "README.md states no trusted-base line counts"
    for name, stated in zip(("kernel", "formula", "sequent"), m.groups()):
        path = ROOT / "src" / "tenseprove" / f"{name}.py"
        lines = path.read_text(encoding="utf-8").count("\n")
        assert int(stated) == lines, f"README.md says {path.name} has {stated} lines, it has {lines}"
