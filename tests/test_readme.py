import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def _quick_start_block():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_as_written():
    # the README leaves ``values`` and ``expansion_factors`` to the reader
    rng = np.random.default_rng(3)
    n = 15
    values = np.column_stack([rng.lognormal(3.0, 0.5, n),
                              rng.integers(0, 2, n),
                              rng.integers(0, 4, n)]).astype(float)
    expansion_factors = rng.uniform(1.0, 5.0, n)
    scope = {"values": values, "expansion_factors": expansion_factors}
    exec(_quick_start_block(), scope)
    labels, out, table = scope["labels"], scope["out"], scope["table"]
    assert out.partitions.shape[1] == n and len(out.partitions) > 0
    assert labels.shape == (n,)
    # one row per selected cluster, then the population row
    assert table.rows.shape[0] == len(np.unique(labels)) + 1
    assert np.isfinite(scope["hm"]) and scope["hm"] >= 0.0
