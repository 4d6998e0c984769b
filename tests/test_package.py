"""The flat horolab namespace: names resolved on first use, and the
README's library sketch run against it, each in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_imports_only_what_a_module_needs():
    out = run_python(
        "import sys, horolab.orbits, horolab.cocycle\n"
        "print(sorted({'numpy', 'horolab.maps', 'horolab.periodic'} & set(sys.modules)))\n"
        "import horolab\n"
        "missing = [n for n in horolab.__all__ if getattr(horolab, n, None) is None]\n"
        "print(missing, horolab.suite.__name__)\n"
    )
    assert out.splitlines() == ["[]", "[] horolab.suite"]


def test_readme_library_sketch_runs():
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "from horolab import" in sketch
    run_python(sketch)
