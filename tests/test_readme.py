"""README's code runs as written."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert text.rfind("## ", 0, block.start()) == text.index("## Library quick start")
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    x, L, E = namespace["x"], namespace["L"], namespace["E"]
    assert namespace["converged"] and np.max(np.abs(x - L - E)) <= 1e-6
    oa, kappa = map(float, capsys.readouterr().out.split())
    assert (oa, kappa) == (namespace["result"].metrics.oa, namespace["result"].metrics.kappa)
