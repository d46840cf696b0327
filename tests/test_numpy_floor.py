"""The package declares numpy>=1.24, so its source may use no name that
first appeared in numpy 2.  This scan makes that checkable without
installing the older numpy."""

import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ordertop"

NUMPY2_ONLY = re.compile(
    r"\b(?:np|numpy)\.(?:"
    r"concat|vecdot|matvec|vecmat|unique_(?:values|counts|inverse|all)|bitwise_count"
    r"|isdtype|astype|permute_dims|unstack|cumulative_(?:sum|prod)"
    r"|linalg\.(?:vector_norm|matrix_transpose)"
    r")\b"
    r"|\.mT\b"
)


@pytest.mark.parametrize(
    "text",
    [
        "np.concat([a, b])",
        "np.vecdot(a, b)",
        "np.matvec(A, x)",
        "np.vecmat(x, A)",
        "np.unique_values(a)",
        "np.unique_counts(a)",
        "np.unique_inverse(a)",
        "np.unique_all(a)",
        "np.bitwise_count(a)",
        "np.isdtype(a.dtype, 'integral')",
        "np.astype(a, np.int64)",
        "np.permute_dims(a, (1, 0))",
        "np.unstack(a)",
        "np.cumulative_sum(a)",
        "np.cumulative_prod(a)",
        "numpy.linalg.vector_norm(a)",
        "np.linalg.matrix_transpose(A)",
        "A.mT @ B",
    ],
)
def test_pattern_catches(text):
    assert NUMPY2_ONLY.search(text)


@pytest.mark.parametrize(
    "text", ["np.concatenate([a, b])", "a.astype(np.int64)", "np.unique(a)", "np.cumsum(a)", "A.T"]
)
def test_pattern_spares_older_names(text):
    assert not NUMPY2_ONLY.search(text)


def test_source_uses_no_numpy2_only_name():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SOURCE.parent)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if NUMPY2_ONLY.search(line)
    ]
    assert found == []
