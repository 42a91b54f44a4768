"""Tests for trace windowing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.splits import temporal_split
from repro.datasets.windows import (
    PACKET_COLUMNS,
    WindowConfig,
    WindowDataset,
    windows_from_trace,
)
from repro.netsim.trace import Trace

#: The per-window arrays a WindowDataset derives from its packet columns.
DERIVED = (
    "features",
    "receiver",
    "delay_target",
    "mct_target",
    "message_size",
    "mct_seq",
    "end_seq",
)


def receiver_index_for(trace):
    return {int(r): i for i, r in enumerate(sorted(set(trace.receiver_id.tolist())))}


def packet_columns(n_packets, **overrides):
    """Zero-filled packet columns in their dataset dtypes."""
    columns = {name: np.zeros(n_packets, dtype=dtype) for name, dtype in PACKET_COLUMNS.items()}
    columns.update(overrides)
    return columns


class ReferenceWindows:
    """Materialized windows: every window's arrays stored in full.

    The equivalence oracle for :class:`WindowDataset`, which holds packet
    columns plus window ends and derives these arrays on access.
    """

    def __init__(self, **arrays):
        for name in DERIVED:
            setattr(self, name, arrays[name])

    def __len__(self):
        return len(self.features)

    def subset(self, indices):
        return ReferenceWindows(**{name: getattr(self, name)[indices] for name in DERIVED})

    def sample_fraction(self, fraction, rng):
        count = max(1, int(round(len(self) * fraction)))
        indices = rng.choice(len(self), size=count, replace=False)
        indices.sort()
        return self.subset(indices)

    @staticmethod
    def concatenate(datasets):
        return ReferenceWindows(
            **{name: np.concatenate([getattr(d, name) for d in datasets]) for name in DERIVED}
        )

    def with_completed_messages_only(self):
        mask = np.isfinite(self.mct_target) & (self.mct_target > 0)
        return self.subset(mask)


def windows_reference(trace, config, receiver_index):
    """The per-window loop, kept as the equivalence oracle for the
    packed windows."""
    n_packets = len(trace)
    window_len = config.window_len
    delays = trace.delay
    receiver_mapped = np.array(
        [receiver_index[int(r)] for r in trace.receiver_id], dtype=np.int64
    )
    ends = np.arange(window_len - 1, n_packets, config.stride)
    n_windows = len(ends)
    features = np.zeros((n_windows, window_len, 3), dtype=np.float64)
    receiver = np.zeros((n_windows, window_len), dtype=np.int64)
    delay_target = np.zeros(n_windows)
    mct_target = np.zeros(n_windows)
    message_size = np.zeros(n_windows)
    mct_seq = np.zeros((n_windows, window_len))
    end_seq = np.zeros((n_windows, window_len), dtype=bool)
    for row, end in enumerate(ends):
        window_slice = slice(end - window_len + 1, end + 1)
        send = trace.send_time[window_slice]
        features[row, :, 0] = send - send[-1]
        features[row, :, 1] = trace.size[window_slice]
        features[row, :, 2] = delays[window_slice]
        receiver[row] = receiver_mapped[window_slice]
        delay_target[row] = delays[end]
        mct_target[row] = trace.mct[end]
        message_size[row] = trace.message_size[end]
        mct_seq[row] = trace.mct[window_slice]
        end_seq[row] = trace.is_message_end[window_slice]
    return ReferenceWindows(
        features=features,
        receiver=receiver,
        delay_target=delay_target,
        mct_target=mct_target,
        message_size=message_size,
        mct_seq=mct_seq,
        end_seq=end_seq,
    )


def assert_bitwise_equal(packed, reference):
    """Every derived array equals the reference in dtype, shape and bits."""
    assert len(packed) == len(reference)
    for name in DERIVED:
        a, b = getattr(packed, name), getattr(reference, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


def synthetic_trace(n_packets, seed):
    """A random trace with a few receivers, message ends and unknown MCTs."""
    rng = np.random.default_rng(seed)
    send = np.cumsum(rng.exponential(1e-3, n_packets))
    mct = rng.uniform(1e-3, 0.5, n_packets)
    mct[rng.random(n_packets) < 0.2] = np.nan
    return Trace(
        send_time=send,
        recv_time=send + rng.uniform(1e-4, 5e-2, n_packets),
        size=rng.integers(40, 1500, n_packets),
        receiver_id=rng.choice([3, 7, 11], n_packets),
        flow_id=np.zeros(n_packets, dtype=np.int64),
        message_id=np.arange(n_packets),
        message_size=rng.integers(1, 100_000, n_packets),
        is_message_end=rng.random(n_packets) < 0.3,
        mct=mct,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(window_len=1)
        with pytest.raises(ValueError):
            WindowConfig(stride=0)


class TestWindowing:
    def test_shapes(self, smoke_trace):
        config = WindowConfig(window_len=32, stride=4)
        ds = windows_from_trace(smoke_trace, config, receiver_index_for(smoke_trace))
        expected = (len(smoke_trace) - 32) // 4 + 1
        assert len(ds) == expected
        assert ds.features.shape == (expected, 32, 3)
        assert ds.receiver.shape == (expected, 32)
        assert ds.window_len == 32

    def test_rel_time_last_packet_zero(self, smoke_trace):
        config = WindowConfig(window_len=16, stride=8)
        ds = windows_from_trace(smoke_trace, config, receiver_index_for(smoke_trace))
        assert np.allclose(ds.features[:, -1, 0], 0.0)
        assert np.all(ds.features[:, :, 0] <= 0.0)

    def test_rel_time_monotone(self, smoke_trace):
        ds = windows_from_trace(
            smoke_trace, WindowConfig(16, 16), receiver_index_for(smoke_trace)
        )
        assert np.all(np.diff(ds.features[:, :, 0], axis=1) >= 0)

    def test_delay_target_matches_last_packet(self, smoke_trace):
        config = WindowConfig(window_len=16, stride=1)
        ds = windows_from_trace(smoke_trace, config, receiver_index_for(smoke_trace))
        delays = smoke_trace.delay
        assert np.allclose(ds.delay_target, delays[15:])
        assert np.allclose(ds.features[:, -1, 2], ds.delay_target)

    def test_stride_spacing(self, smoke_trace):
        one = windows_from_trace(
            smoke_trace, WindowConfig(16, 1), receiver_index_for(smoke_trace)
        )
        four = windows_from_trace(
            smoke_trace, WindowConfig(16, 4), receiver_index_for(smoke_trace)
        )
        assert np.allclose(four.delay_target, one.delay_target[::4])

    def test_short_trace_yields_empty(self, smoke_trace):
        tiny = smoke_trace.subset(np.arange(5))
        ds = windows_from_trace(tiny, WindowConfig(window_len=64), receiver_index_for(smoke_trace))
        assert len(ds) == 0
        assert ds.features.shape == (0, 64, 3)

    def test_receiver_ids_remapped(self, smoke_case2_trace):
        index = receiver_index_for(smoke_case2_trace)
        ds = windows_from_trace(smoke_case2_trace, WindowConfig(16, 8), index)
        assert set(np.unique(ds.receiver).tolist()) <= set(index.values())

    def test_mct_seq_aligned(self, smoke_trace):
        ds = windows_from_trace(
            smoke_trace, WindowConfig(16, 4), receiver_index_for(smoke_trace)
        )
        assert np.allclose(ds.mct_seq[:, -1], ds.mct_target)

    def test_message_size_positive(self, smoke_trace):
        ds = windows_from_trace(
            smoke_trace, WindowConfig(16, 4), receiver_index_for(smoke_trace)
        )
        assert np.all(ds.message_size > 0)


class TestDatasetOps:
    @pytest.fixture
    def dataset(self, smoke_trace):
        return windows_from_trace(
            smoke_trace, WindowConfig(16, 2), receiver_index_for(smoke_trace)
        )

    def test_subset_boolean(self, dataset):
        mask = dataset.delay_target > np.median(dataset.delay_target)
        sub = dataset.subset(mask)
        assert len(sub) == int(mask.sum())

    def test_sample_fraction(self, dataset, rng):
        sub = dataset.sample_fraction(0.1, rng)
        assert len(sub) == max(1, round(0.1 * len(dataset)))

    def test_sample_fraction_invalid(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.sample_fraction(0.0, rng)

    def test_concatenate(self, dataset):
        merged = WindowDataset.concatenate([dataset, dataset])
        assert len(merged) == 2 * len(dataset)

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            WindowDataset.concatenate([])

    def test_completed_messages_filter(self, dataset):
        filtered = dataset.with_completed_messages_only()
        assert np.all(np.isfinite(filtered.mct_target))
        assert np.all(filtered.mct_target > 0)

    def test_column_validation(self):
        with pytest.raises(ValueError):
            WindowDataset(packet_columns(10, receiver=np.zeros(9)), [7, 9], 8)  # mismatched
        columns = packet_columns(10)
        del columns["mct"]
        with pytest.raises(ValueError):
            WindowDataset(columns, [7, 9], 8)

    def test_window_bounds_validated(self):
        columns = packet_columns(20)
        WindowDataset(columns, [7, 19], 8, segments=[0, 12])
        with pytest.raises(ValueError, match="out of range"):
            WindowDataset(columns, [7, 20], 8)
        with pytest.raises(ValueError, match="out of range"):
            WindowDataset(columns, [-1], 8)
        with pytest.raises(ValueError, match="before the start"):
            WindowDataset(columns, [6], 8)
        with pytest.raises(ValueError, match="before the start"):
            WindowDataset(columns, [7, 18], 8, segments=[0, 12])
        with pytest.raises(ValueError):
            WindowDataset(columns, [7], 8, segments=[2])

    def test_subset_shares_packet_columns(self, dataset):
        sub = dataset.subset(np.arange(0, len(dataset), 3))
        for name in PACKET_COLUMNS:
            assert sub.columns[name] is dataset.columns[name]

    def test_concatenate_keeps_only_read_packets(self, dataset):
        tail = dataset.subset(slice(len(dataset) - 2, None))
        compact = WindowDataset.concatenate([tail])
        assert len(compact.columns["send_time"]) == tail.ends[-1] - tail.ends[0] + tail.window_len
        assert_bitwise_equal(compact, tail)

    def test_concatenate_keeps_windows_inside_their_inputs(self, dataset):
        merged = WindowDataset.concatenate([dataset.subset([0]), dataset.subset([1])])
        assert merged.segments.tolist() == [0, dataset.window_len]
        assert_bitwise_equal(merged, dataset.subset([0, 1]))

    def test_concatenate_rejects_mixed_window_lengths(self, smoke_trace):
        index = receiver_index_for(smoke_trace)
        with pytest.raises(ValueError):
            WindowDataset.concatenate([
                windows_from_trace(smoke_trace, WindowConfig(16, 8), index),
                windows_from_trace(smoke_trace, WindowConfig(32, 8), index),
            ])

    def test_derived_arrays_materialize_once(self, dataset):
        assert dataset.features is dataset.features
        assert dataset.mct_target is dataset.mct_target


class TestVectorisedEquivalence:
    """The packed windows must be byte-identical to the per-window
    reference loop — bundles are cached artifacts."""

    @pytest.mark.parametrize("window_len,stride", [(16, 1), (32, 4), (33, 7)])
    def test_bitwise_equal_to_reference(self, smoke_trace, window_len, stride):
        config = WindowConfig(window_len=window_len, stride=stride)
        index = receiver_index_for(smoke_trace)
        fast = windows_from_trace(smoke_trace, config, index)
        reference = windows_reference(smoke_trace, config, index)
        assert_bitwise_equal(fast, reference)

    def test_unknown_receiver_raises(self, smoke_trace):
        index = receiver_index_for(smoke_trace)
        index.pop(int(smoke_trace.receiver_id[0]))
        with pytest.raises(KeyError):
            windows_from_trace(smoke_trace, WindowConfig(16, 2), index)


#: Operations applied alike to a packed dataset and its reference.
OPERATIONS = ("subset", "mask", "sample_fraction", "completed", "split", "concatenate")


class TestPackedOracle:
    """Chains of window selections over packed datasets match the same
    chains over materialized reference windows, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        window_len=st.integers(2, 24),
        stride=st.integers(1, 9),
        lengths=st.lists(st.integers(0, 120), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_operation_chains_match_reference(self, window_len, stride, lengths, seed, data):
        config = WindowConfig(window_len=window_len, stride=stride)
        traces = [synthetic_trace(n, seed + i) for i, n in enumerate(lengths)]
        index = {3: 0, 7: 1, 11: 2}
        runs = [
            (windows_from_trace(t, config, index), windows_reference(t, config, index))
            for t in traces
        ]
        for packed, reference in runs:
            assert_bitwise_equal(packed, reference)
        packed = WindowDataset.concatenate([p for p, _ in runs])
        reference = ReferenceWindows.concatenate([r for _, r in runs])
        assert_bitwise_equal(packed, reference)
        for operation in data.draw(st.lists(st.sampled_from(OPERATIONS), max_size=5)):
            count = len(packed)
            if operation == "subset":
                indices = np.asarray(
                    data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=count)),
                    dtype=np.int64,
                ) if count else np.zeros(0, dtype=np.int64)
                packed, reference = packed.subset(indices), reference.subset(indices)
            elif operation == "mask":
                mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)), dtype=bool)
                packed, reference = packed.subset(mask), reference.subset(mask)
            elif operation == "sample_fraction" and count:
                fraction = data.draw(st.floats(0.05, 1.0))
                rng_seed = data.draw(st.integers(0, 100))
                packed = packed.sample_fraction(fraction, np.random.default_rng(rng_seed))
                reference = reference.sample_fraction(fraction, np.random.default_rng(rng_seed))
            elif operation == "completed":
                packed = packed.with_completed_messages_only()
                reference = reference.with_completed_messages_only()
            elif operation == "split" and count >= 3:
                part = data.draw(st.integers(0, 2))
                packed = temporal_split(packed)[part]
                reference = temporal_split(reference)[part]
            elif operation == "concatenate":
                other, other_reference = runs[data.draw(st.integers(0, len(runs) - 1))]
                packed = WindowDataset.concatenate([packed, other, packed])
                reference = ReferenceWindows.concatenate([reference, other_reference, reference])
            assert_bitwise_equal(packed, reference)
        assert_bitwise_equal(WindowDataset.concatenate([packed]), reference)
