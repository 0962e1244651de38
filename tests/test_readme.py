import re
from pathlib import Path

import numpy as np

from pdclust.dataio import read_schema_file

README = Path(__file__).parents[1] / "README.md"


def _readme_block(heading, fence):
    """The first fenced block opened by ``fence`` after the README's ``heading``."""
    section = README.read_text().split(heading, 1)[1]
    return re.search(fence + r"\n(.*?)```", section, re.DOTALL).group(1)


def test_schema_file_example_reads_as_described(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text(_readme_block("### Schema files", "```"))
    specs, weight_column, skipped = read_schema_file(path)
    by_name = {v.name: v for v in specs}
    assert list(by_name) == ["income", "feed", "hedu", "town"]
    assert by_name["income"].transform.kind == "log-shift"
    assert by_name["income"].transform.shift_quantile == 0.01
    assert by_name["feed"].kind == "ordinal" and by_name["feed"].levels == ("no", "yes")
    assert by_name["hedu"].kind == "ordinal" and by_name["hedu"].n_levels == 3
    assert by_name["town"].kind == "nominal"
    assert by_name["town"].levels == ("metro", "urban", "semiurban", "rural")
    assert weight_column == "factor" and skipped == []


def test_library_quick_start_runs_as_written():
    # the README leaves ``values`` and ``expansion_factors`` to the reader
    rng = np.random.default_rng(3)
    n = 15
    values = np.column_stack([rng.lognormal(3.0, 0.5, n),
                              rng.integers(0, 2, n),
                              rng.integers(0, 4, n)]).astype(float)
    expansion_factors = rng.uniform(1.0, 5.0, n)
    scope = {"values": values, "expansion_factors": expansion_factors}
    exec(_readme_block("## Library quick start", "```python"), scope)
    labels, out, table = scope["labels"], scope["out"], scope["table"]
    assert out.partitions.shape[1] == n and len(out.partitions) > 0
    assert labels.shape == (n,)
    # one row per selected cluster, then the population row
    assert table.rows.shape[0] == len(np.unique(labels)) + 1
    assert np.isfinite(scope["hm"]) and scope["hm"] >= 0.0
