"""Tests for the shared :class:`KernelOptions` bundle and the narrow-dtype path.

Covers the options object itself (validation, ``resolve``, immutability,
its three fields), how configs take it, the capacity/precision guards
that fire for narrow-dtype configurations, and the contractual properties
of the float32 representation: cross-kernel bit-identity at either dtype,
statistical (not bitwise) equivalence against the default float64 state,
and picklable mid-run state in both layouts.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.p2psim import (
    CreditMarketSimulator,
    KernelOptions,
    MarketSimConfig,
    Simulator,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.runner import ExecutionPlan, execute


def market_config(**overrides):
    defaults = dict(
        num_peers=60,
        initial_credits=25.0,
        horizon=400.0,
        step=2.0,
        utilization=UtilizationMode.SYMMETRIC,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def streaming_config(**overrides):
    defaults = dict(
        num_peers=30,
        initial_credits=15.0,
        horizon=120.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=4,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


class TestKernelOptions:
    def test_defaults(self):
        options = KernelOptions()
        assert options.kernel == "vectorized"
        assert options.dtype == "float64"
        assert options.telemetry is True
        assert options.float_dtype == np.float64
        assert options.index_dtype == np.int64
        assert not options.is_narrow

    def test_narrow_dtypes(self):
        options = KernelOptions(dtype="float32")
        assert options.float_dtype == np.float32
        assert options.index_dtype == np.int32
        assert options.is_narrow

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="kernel"):
            KernelOptions(kernel="bogus")
        with pytest.raises(ValueError, match="dtype"):
            KernelOptions(dtype="float16")

    def test_resolve_maps_none_to_defaults(self):
        assert KernelOptions.resolve() == KernelOptions()
        assert KernelOptions.resolve(kernel="loop") == KernelOptions(kernel="loop")
        assert KernelOptions.resolve(dtype="float32") == KernelOptions(dtype="float32")
        assert KernelOptions.resolve(telemetry=False).telemetry is False

    def test_frozen_and_hashable(self):
        options = KernelOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.kernel = "loop"
        assert len({KernelOptions(), KernelOptions(kernel="loop")}) == 2

    def test_holds_only_kernel_dtype_and_telemetry(self):
        # Execution knobs (shards, partitioner, backend) live on
        # ExecutionPlan alone.
        names = [field.name for field in dataclasses.fields(KernelOptions)]
        assert names == ["kernel", "dtype", "telemetry"]


class TestConfigOptions:
    @pytest.mark.parametrize("config_cls", [MarketSimConfig, StreamingSimConfig])
    def test_options_select_the_kernel(self, config_cls, recwarn):
        config = config_cls(options=KernelOptions(kernel="loop"))
        assert config.options.kernel == "loop"
        assert not recwarn.list

    @pytest.mark.parametrize("config_cls", [MarketSimConfig, StreamingSimConfig])
    def test_no_separate_kernel_field(self, config_cls):
        with pytest.raises(TypeError, match="kernel"):
            config_cls(kernel="loop")

    def test_rejects_non_options_object(self):
        with pytest.raises(TypeError, match="KernelOptions"):
            MarketSimConfig(options="vectorized")


class TestNarrowDtypeGuards:
    def test_int32_capacity_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="int32"):
            MarketSimConfig(num_peers=2**31, options=KernelOptions(dtype="float32"))

    def test_float32_precision_warning_at_config_time(self):
        with pytest.warns(UserWarning, match="float32"):
            MarketSimConfig(
                num_peers=200,
                initial_credits=100000.0,
                options=KernelOptions(dtype="float32"),
            )

    def test_default_dtype_is_unguarded(self, recwarn):
        MarketSimConfig(num_peers=200, initial_credits=100000.0)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


class TestSimulatorProtocol:
    def test_simulators_satisfy_protocol(self):
        assert isinstance(CreditMarketSimulator(market_config()), Simulator)
        assert isinstance(StreamingMarketSimulator(streaming_config()), Simulator)


class TestFloat32Path:
    def test_market_kernels_byte_identical_at_float32(self):
        vectorized = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(kernel="vectorized", dtype="float32"))
        )
        loop = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(kernel="loop", dtype="float32"))
        )
        assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
        assert tuple(vectorized.recorder.gini_series.y) == tuple(loop.recorder.gini_series.y)

    def test_streaming_kernels_byte_identical_at_float32(self):
        vectorized = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(kernel="vectorized", dtype="float32"))
        )
        loop = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(kernel="loop", dtype="float32"))
        )
        assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
        assert vectorized.chunks_delivered == loop.chunks_delivered

    def test_market_float32_statistically_equivalent(self):
        wide = CreditMarketSimulator.run_config(market_config())
        narrow = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(dtype="float32"))
        )
        assert narrow.final_wealths.dtype == np.float32
        # Credit conservation is exact in both representations (integer
        # totals well inside float32's exact range) ...
        assert float(narrow.final_wealths.sum()) == pytest.approx(
            float(wide.final_wealths.sum()), rel=1e-6
        )
        # ... and the distributional outcome matches statistically, not
        # bitwise: same seed, same draws, occasional boundary routing flips.
        assert narrow.final_gini == pytest.approx(wide.final_gini, abs=0.05)
        assert float(np.mean(narrow.final_wealths)) == pytest.approx(
            float(np.mean(wide.final_wealths)), rel=1e-5
        )

    def test_streaming_float32_statistically_equivalent(self):
        wide = StreamingMarketSimulator.run_config(streaming_config())
        narrow = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(dtype="float32"))
        )
        assert narrow.final_wealths.dtype == np.float32
        assert float(narrow.final_wealths.sum()) == pytest.approx(
            float(wide.final_wealths.sum()), rel=1e-6
        )
        assert narrow.final_gini == pytest.approx(wide.final_gini, abs=0.08)
        assert narrow.chunks_delivered == pytest.approx(wide.chunks_delivered, rel=0.1)


class TestPicklableStateBothLayouts:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_market_pickle_roundtrip_mid_run(self, dtype):
        config = market_config(options=KernelOptions(dtype=dtype))
        simulator = CreditMarketSimulator(config)
        half = simulator.total_rounds() // 2
        simulator.advance_rounds(half)
        clone = pickle.loads(pickle.dumps(simulator))
        rest = simulator.total_rounds() - half
        simulator.advance_rounds(rest)
        clone.advance_rounds(rest)
        original = simulator.finalize()
        resumed = clone.finalize()
        assert original.final_wealths.tobytes() == resumed.final_wealths.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_market_partitioned_matches_monolithic(self, dtype):
        config = market_config(options=KernelOptions(dtype=dtype))
        monolithic = CreditMarketSimulator.run_config(config)
        partitioned = execute(config, ExecutionPlan(intra_jobs=3))
        np.testing.assert_array_equal(monolithic.final_wealths, partitioned.final_wealths)
        assert partitioned.final_wealths.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_streaming_partitioned_matches_monolithic(self, dtype):
        config = streaming_config(options=KernelOptions(dtype=dtype))
        monolithic = StreamingMarketSimulator.run_config(config)
        partitioned = execute(config, ExecutionPlan(intra_jobs=3))
        np.testing.assert_array_equal(monolithic.final_wealths, partitioned.final_wealths)
        assert partitioned.final_wealths.dtype == np.dtype(dtype)
