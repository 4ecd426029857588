"""Architecture-backend contract tests (``repro.arch``).

Pins the three load-bearing properties of the backend refactor:

* **Registry coherence** — the ``repro.arch`` registry and
  ``config.KNOWN_ARCHES`` describe the same backends, and lookups fail
  loudly for unknown names.
* **Cache-key discipline** — ``GPUConfig.fingerprint`` changes with
  ``arch`` and the sub-core parameters; two architectures never collide
  in the artifact store.
* **Reference equivalence under every arch** — the pipeline's
  prediction is pickle-identical to one built from the reference
  functions (per-warp emulator, loop-nest cache replay, per-warp
  interval scan).
* **Bitwise identity of the default backend** — ``arch="gpumech2014"``
  predictions are pickle-identical to composing the ``repro.core``
  functions directly (the pre-backend code path), across the whole
  workload suite.
"""

import pickle

import numpy as np
import pytest

from repro.arch import (
    ARCH_NAMES,
    ArchBackend,
    GpuMech2014,
    SubCore,
    get_arch,
    schedulers_for,
)
from repro.config import (
    ALL_FIELDS,
    KNOWN_ARCHES,
    TRACE_FIELDS,
    ConfigError,
    GPUConfig,
)
from repro.pipeline import Pipeline
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names
from tests.test_vectorized_equivalence import reference_prediction

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)
SUBCORE = CONFIG.with_(arch="subcore", n_schedulers=2)


class TestRegistry:
    def test_registry_matches_config(self):
        assert set(ARCH_NAMES) == set(KNOWN_ARCHES)

    def test_get_arch_returns_singletons(self):
        for name in ARCH_NAMES:
            backend = get_arch(name)
            assert isinstance(backend, ArchBackend)
            assert backend.name == name
            assert get_arch(name) is backend

    def test_default_is_the_paper_backend(self):
        assert isinstance(get_arch(GPUConfig().arch), GpuMech2014)

    def test_unknown_arch_raises_with_known_names(self):
        with pytest.raises(ValueError, match="gpumech2014"):
            get_arch("volta")

    def test_describe_is_informative(self):
        for name in ARCH_NAMES:
            text = get_arch(name).describe()
            assert name in text

    def test_schedulers_per_core(self):
        assert get_arch("gpumech2014").schedulers_per_core(SUBCORE) == 1
        assert get_arch("subcore").schedulers_per_core(SUBCORE) == 2
        assert schedulers_for(SubCore(), SUBCORE, n_warps=1) == 1


class TestConfigValidation:
    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError, match="unknown arch"):
            GPUConfig(arch="volta")

    def test_n_schedulers_must_be_positive(self):
        with pytest.raises(ConfigError, match="n_schedulers"):
            GPUConfig(n_schedulers=0)

    def test_subcore_partition_must_divide_residency(self):
        # 8 warps/core cannot be split over 3 schedulers.
        with pytest.raises(ConfigError, match="must divide"):
            GPUConfig.small(warps_per_core=8).with_(
                arch="subcore", n_schedulers=3
            )

    def test_gpumech2014_ignores_partitioning(self):
        # The divisibility rule binds only under sub-core dispatch.
        GPUConfig.small(warps_per_core=8).with_(n_schedulers=3)


class TestCacheKeys:
    def test_fingerprint_changes_with_arch(self):
        assert CONFIG.fingerprint(ALL_FIELDS) != SUBCORE.fingerprint(
            ALL_FIELDS
        )
        # The trace stage re-runs too: reconvergence is an arch hook.
        assert CONFIG.trace_fingerprint() != SUBCORE.trace_fingerprint()

    def test_fingerprint_changes_with_n_schedulers(self):
        assert SUBCORE.fingerprint(ALL_FIELDS) != SUBCORE.with_(
            n_schedulers=4
        ).fingerprint(ALL_FIELDS)
        # ...but the trace does not depend on the partition count (nor
        # on simt_width, which validation pins to warp_size).
        assert TRACE_FIELDS == frozenset(
            {"warp_size", "line_size", "smem_banks", "arch"}
        )

    def test_archs_never_collide_on_disk(self, tmp_path):
        """Predictions cached by one arch are invisible to the other."""
        kernel = "vectoradd"
        first = Pipeline(
            CONFIG, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        second = Pipeline(
            SUBCORE, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert first.arch == "gpumech2014"
        assert second.arch == "subcore"
        # Round-trip through the same store: each arch hits its own
        # artifact, bitwise.
        again = Pipeline(
            CONFIG, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert pickle.dumps(again) == pickle.dumps(first)
        again_sub = Pipeline(
            SUBCORE, scale=Scale.tiny(), cache_dir=str(tmp_path)
        ).predict(kernel)
        assert pickle.dumps(again_sub) == pickle.dumps(second)


class TestComputeBackendIndependence:
    @pytest.mark.parametrize("config", [CONFIG, SUBCORE],
                             ids=["gpumech2014", "subcore"])
    def test_scalar_and_vectorized_agree(self, config):
        prediction = Pipeline(config, scale=Scale.tiny()).predict(
            "bfs_kernel1"
        )
        reference = reference_prediction(
            "bfs_kernel1", config=config, scale=Scale.tiny()
        )
        assert pickle.dumps(prediction) == pickle.dumps(reference)
        assert prediction.arch == config.arch
        assert prediction.cpi > 0


class TestDefaultArchBitwiseIdentity:
    def test_dispatch_equals_direct_composition(self):
        """gpumech2014 == the pre-backend code path, whole suite."""
        from repro.core.contention import model_contention
        from repro.core.cpi_stack import build_cpi_stack
        from repro.core.model import resident_warps_per_core
        from repro.core.multithreading import model_multithreading

        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        for name in kernel_names():
            prediction = pipeline.predict(name)
            inputs = pipeline.model_inputs(name)
            profile = inputs.representative
            n_warps = resident_warps_per_core(inputs.trace, CONFIG)
            multithreading = model_multithreading(
                profile, n_warps, CONFIG.scheduler
            )
            contention = model_contention(
                profile, n_warps, CONFIG, inputs.avg_miss_latency
            )
            stack = build_cpi_stack(
                profile, inputs.latency_table, multithreading, contention,
                CONFIG,
            )
            assert pickle.dumps(prediction.multithreading) == pickle.dumps(
                multithreading
            ), name
            assert pickle.dumps(prediction.contention) == pickle.dumps(
                contention
            ), name
            assert pickle.dumps(prediction.cpi_stack) == pickle.dumps(
                stack
            ), name
            assert prediction.arch == "gpumech2014"


class TestInterleavedTraces:
    def _traces(self, name, config):
        from repro.trace.emulator import emulate

        kernel, memory = SUITE[name].build(Scale.tiny())
        return emulate(kernel, config, memory=memory)

    def test_nondivergent_traces_identical_across_archs(self):
        """Without divergence the two reconvergence policies coincide."""
        base = self._traces("vectoradd", CONFIG)
        its = self._traces("vectoradd", SUBCORE)
        for a, b in zip(base.warps, its.warps):
            assert np.array_equal(a.pcs, b.pcs)
            assert np.array_equal(a.ops, b.ops)
            assert np.array_equal(a.active, b.active)

    def test_divergent_traces_same_work(self):
        """ITS executes the same per-warp work as the stack.

        On *structured* control flow (every then-block laid out before
        its else-target, reconvergence at the immediate post-dominator —
        all suite kernels) min-PC scheduling provably coincides with
        stack order, so the traces match exactly; the policies only
        reorder when branch targets overlap (see
        ``TestInterleavedStackUnit.test_min_pc_interleaves_overlap``).
        """
        base = self._traces("mandelbrot", CONFIG)
        its = self._traces("mandelbrot", SUBCORE)
        assert its.total_insts > 0
        for a, b in zip(base.warps, its.warps):
            assert sorted(a.pcs.tolist()) == sorted(b.pcs.tolist())

    def test_interleaved_policy_reaches_whole_suite(self):
        """Every suite kernel emulates cleanly under ITS reconvergence."""
        for name in kernel_names():
            trace = self._traces(name, SUBCORE)
            assert trace.total_insts > 0, name


class TestInterleavedStackUnit:
    def _drive(self, stack, stop_pc):
        """Step the stack to quiescence, recording the executed PCs."""
        order = []
        while True:
            if stack.pop_reconverged():
                continue
            group = stack.top
            if group.pc >= stop_pc and stack.depth == 1:
                return order
            order.append(group.pc)
            stack.advance()

    def test_min_pc_interleaves_overlapping_sides(self):
        """Where the two sides' PC ranges overlap, ITS alternates.

        Branch at pc 0: taken side starts at 10, fallthrough at 1, both
        reconverging at 20.  The post-dominator stack runs the whole
        fallthrough side (1..19) before the taken side (10..19); min-PC
        scheduling runs fallthrough alone only while it is strictly
        below the taken side's PC, then alternates the two sides in
        lockstep — the producer→consumer spacing the subcore backend
        models.
        """
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(4, dtype=bool))
        assert not stack.pop_reconverged()
        taken = np.array([True, True, False, False])
        stack.branch(taken, target=10, reconv=20)
        order = self._drive(stack, stop_pc=20)
        expected = list(range(1, 10))
        for pc in range(10, 20):
            expected += [pc, pc]
        assert order == expected
        # After the merge the warp is whole again.
        assert stack.depth == 1
        assert stack.top.pc == 20
        assert stack.top.n_active == 4

    def test_structured_if_else_matches_stack_order(self):
        """Non-overlapping sides (then at 1..4 ending in a jump to the
        reconvergence point, else at 5..8) do not interleave: the min-PC
        rule degenerates to stack order."""
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(2, dtype=bool))
        assert not stack.pop_reconverged()
        stack.branch(np.array([False, True]), target=5, reconv=9)
        order = []
        while True:
            if stack.pop_reconverged():
                continue
            group = stack.top
            if group.pc >= 9 and stack.depth == 1:
                break
            order.append(group.pc)
            if group.pc == 4:  # then-block tail: bra -> reconv
                stack.jump(9)
            else:
                stack.advance()
        assert order == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_uniform_branches_never_split(self):
        from repro.trace.reconvergence import InterleavedStack

        stack = InterleavedStack(np.ones(2, dtype=bool))
        stack.branch(np.zeros(2, dtype=bool), target=7, reconv=None)
        assert stack.depth == 1 and stack.top.pc == 1
        stack.branch(np.ones(2, dtype=bool), target=7, reconv=None)
        assert stack.depth == 1 and stack.top.pc == 7

    def test_divergent_branch_requires_reconv(self):
        from repro.trace.reconvergence import InterleavedStack
        from repro.trace.simt_stack import SimtStackError

        stack = InterleavedStack(np.ones(2, dtype=bool))
        with pytest.raises(SimtStackError):
            stack.branch(np.array([True, False]), target=5, reconv=None)

    def test_empty_mask_rejected(self):
        from repro.trace.reconvergence import InterleavedStack
        from repro.trace.simt_stack import SimtStackError

        with pytest.raises(SimtStackError):
            InterleavedStack(np.zeros(4, dtype=bool))


class TestSubcoreEndToEnd:
    def test_full_pipeline_runs(self):
        pipeline = Pipeline(SUBCORE, scale=Scale.tiny())
        prediction = pipeline.predict("bfs_kernel1")
        stats = pipeline.simulate("bfs_kernel1")
        assert prediction.arch == "subcore"
        assert stats.arch == "subcore"
        assert prediction.cpi > 0 and stats.cpi > 0

    def test_subcore_multithreading_floor(self):
        """Two issue slots halve the CPI floor on issue-bound kernels."""
        from repro.core.interval import build_interval_profiles
        from repro.core.latency import build_latency_table
        from repro.memory.cache_simulator import simulate_caches
        from repro.trace.emulator import emulate

        kernel, memory = SUITE["vectoradd"].build(Scale.tiny())
        trace = emulate(kernel, SUBCORE, memory=memory)
        cache = simulate_caches(trace, SUBCORE)
        table = build_latency_table(trace, cache, SUBCORE)
        profile = build_interval_profiles(
            trace.warps, table, SUBCORE.issue_rate
        )[0]
        sub = get_arch("subcore").model_multithreading(
            profile, 8, "rr", SUBCORE
        )
        assert sub.n_warps == 8
        assert sub.cpi >= 1.0 / (2 * SUBCORE.issue_rate)

    def test_arch_comparison_report(self):
        from repro.analysis import (
            compare_architectures,
            render_arch_comparison,
        )

        results = compare_architectures(
            scale=Scale.tiny(), kernels=["vectoradd"], config=CONFIG
        )
        assert set(results) == {"vectoradd"}
        assert set(results["vectoradd"]) == set(ARCH_NAMES)
        report = render_arch_comparison(results)
        assert "vectoradd" in report
        assert "gpumech2014" in report and "subcore" in report
