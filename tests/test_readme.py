"""The README's library snippets run as written."""
import re
from pathlib import Path

import numpy as np

README = (Path(__file__).parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)


def test_the_calibration_snippet_rebuilds_the_thresholds_of_prepare():
    """The snippet that calibrates by hand, run with the cfg of the first
    block (its run_experiment call left out), gets prepare's thresholds and
    difficult rows, as its comment says."""
    first = PYTHON_BLOCKS[0]
    namespace = {}
    exec(first[: first.index("result = run_experiment(")], namespace)
    snippet, = (b for b in PYTHON_BLOCKS if "prep = prepare(cfg)" in b)
    exec(snippet, namespace)
    prep = namespace["prep"]
    assert namespace["thresholds"] == prep.thresholds
    assert np.array_equal(namespace["difficult"], ~prep.thresholds.easy(prep.routing["validation"]))
    assert namespace["difficult"].sum() == prep.difficult_val.n_samples
