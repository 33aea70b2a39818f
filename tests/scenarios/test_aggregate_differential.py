"""The sparse accumulator against the dense 4,096-bin one it replaced.

``MetricAccumulator`` keeps only its occupied bins and folds a whole matrix
of columns in one pass (``update_rows``).  On finite values it must report
what the dense accumulator in ``aggregate_reference.py`` reports: the same
count, min, max and quantiles however the values were batched or laid out in
rows, and the same mean under the same batching.  And the ``summary()`` of
journals written before the change — sweep (jsonl and columnar), chaos and
resilience — must stay byte-identical to the payload that code printed.
"""

import gzip
import json
import pathlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ResultsStore
from repro.scenarios.aggregate import MetricAccumulator, update_rows
from tests.scenarios.aggregate_reference import MetricAccumulator as DenseAccumulator

DATA = pathlib.Path(__file__).parent / "data"
HISTOGRAM_FIELDS = ("count", "min", "max", "p50", "p90", "p99")

#: Finite values far beyond SPAN's ~6e27 (bounded so that no sum of a
#: drawn batch overflows), signed zeros and integers, as the store feeds them.
VALUES = st.one_of(
    st.floats(min_value=-1e306, max_value=1e306),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 6e27, -6e27, 1e300, -1e300]),
    st.integers(min_value=-(2**70), max_value=2**70).map(float),
)


def _histogram_view(stats):
    # repr keeps the sign of a zero that == would forgive.
    return {field: repr(stats[field]) for field in HISTOGRAM_FIELDS}


def _batches(values, cuts):
    bounds = sorted({min(cut, len(values)) for cut in cuts})
    return [values[start:stop] for start, stop in zip([0, *bounds], [*bounds, len(values)])]


class TestSparseAgainstDense:
    @settings(max_examples=200, derandomize=True)
    @given(
        values=st.lists(VALUES, max_size=60),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        other_cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
    )
    def test_one_column_under_any_batching(self, values, cuts, other_cuts):
        sparse, dense, rebatched = MetricAccumulator(), DenseAccumulator(), MetricAccumulator()
        for batch in _batches(values, cuts):
            sparse.update(batch)
            dense.update(batch)
        for batch in _batches(values, other_cuts):
            rebatched.update(batch)
        expected = dense.to_dict()
        # Same batching: every field, the mean included, bit for bit.
        assert json.dumps(sparse.to_dict()) == json.dumps(expected)
        # Another batching: everything the histogram and min/max decide.
        assert _histogram_view(rebatched.to_dict()) == _histogram_view(expected)

    @settings(max_examples=150, derandomize=True)
    @given(
        rows=st.integers(min_value=1, max_value=6),
        widths=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_a_matrix_folds_each_row_as_that_row_alone(self, rows, widths, data):
        sparse = [MetricAccumulator() for _ in range(rows)]
        dense = [DenseAccumulator() for _ in range(rows)]
        for width in widths:
            cells = data.draw(st.lists(VALUES, min_size=rows * width, max_size=rows * width))
            matrix = np.array(cells, dtype=np.float64).reshape(rows, width)
            update_rows(sparse, matrix)
            for accumulator, row in zip(dense, matrix):
                accumulator.update(row.copy())
        for accumulator, reference in zip(sparse, dense):
            assert json.dumps(accumulator.to_dict()) == json.dumps(reference.to_dict())

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 4096, 10_007])
    def test_row_sums_are_the_one_dimensional_sums(self, length):
        # The mean's bit identity rests on axis-1 sums running the same
        # pairwise loop as a 1-D array.sum().
        rng = np.random.default_rng(length)
        matrix = rng.standard_normal((3, length)) * 10.0 ** rng.integers(-8, 20, (3, length))
        sparse = [MetricAccumulator() for _ in range(3)]
        update_rows(sparse, np.ascontiguousarray(matrix))
        for accumulator, row in zip(sparse, matrix):
            dense = DenseAccumulator()
            dense.update(row.copy())
            assert accumulator.total == dense.total
            assert accumulator.to_dict() == dense.to_dict()

    def test_state_is_the_occupied_bins_only(self):
        accumulator = MetricAccumulator()
        accumulator.update([1.0, 1.0, 2.0, 1e6])
        accumulator.update([1.0, -3.0])
        assert isinstance(accumulator._counts, dict)
        assert len(accumulator._counts) == 4
        assert sum(accumulator._counts.values()) == accumulator.count == 6
        assert all(0 <= index < MetricAccumulator.BINS for index in accumulator._counts)


def _journal(name, tmp_path):
    source = DATA / name
    if name.endswith(".gz"):
        path = tmp_path / name[: -len(".gz")]
        with gzip.open(source, "rb") as packed, open(path, "wb") as plain:
            shutil.copyfileobj(packed, plain)
    else:
        path = tmp_path / name
        shutil.copy(source, path)
    return path


class TestParentJournalSummaries:
    """Journals the dense accumulator's code wrote, with the payloads it printed."""

    EXPECTED = json.loads((DATA / "summary_parent_payloads.json").read_text())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_summary_payload_is_byte_identical(self, tmp_path, name):
        payload = ResultsStore(_journal(name, tmp_path)).summary()
        payload.pop("path")
        assert json.dumps(payload, indent=2) == json.dumps(self.EXPECTED[name], indent=2)
