"""Counter-based sampling, admissible choices, and protocol statistics."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corrineq
from corrineq.dsl import VariableId
from corrineq.polynomials import format_varset

from corrineq.protocol import (
    ALL_CHOICES,
    DATA_CHOICES,
    F_COEFFICIENTS,
    X1,
    X2,
    Y1,
    Y2,
    CounterRng,
    MeasurementChoice,
    admissible_data,
    estimate_f,
    signaling_test,
    simulate_choice_block,
    simulate_shot,
)
from corrineq.quantum import (
    hybrid_settings,
    plane_vector,
    product_state,
    singlet_state,
)

SQRT8 = 2.0 * np.sqrt(2.0)

SETTINGS = hybrid_settings()

STATES = {
    "singlet": singlet_state(),
    "product": product_state(plane_vector(0.3), plane_vector(1.1)),
}


def pooled_reference(rho, settings, shots, seed):
    """The float pooling estimate_f replaced: per-shot float64 products,
    concatenated per pool, with np.var and np.cov for the moments.

    Returns (means, stderrs, counts by label, f_value, f_stderr, choice_counts).
    """
    counts = [shots // len(DATA_CHOICES)] * len(DATA_CHOICES)
    for i in range(shots % len(DATA_CHOICES)):
        counts[i] += 1
    pools, block_products, choice_counts = {}, [], {}
    next_id = 0
    for choice, count in zip(DATA_CHOICES, counts):
        choice_counts[choice.label()] = count
        ids = np.arange(next_id, next_id + count, dtype=np.uint64)
        next_id += count
        if count == 0:
            block_products.append({})
            continue
        values = simulate_choice_block(rho, choice, settings, seed, ids)
        per_pair = {}
        for pair in admissible_data(choice):
            a, b = sorted(pair, key=VariableId.sort_key)
            prods = values[a].astype(np.float64) * values[b].astype(np.float64)
            per_pair[pair] = prods
            pools.setdefault(pair, []).append(prods)
        block_products.append(per_pair)

    means, variances, sizes = {}, {}, {}
    for pair, chunks in pools.items():
        data = np.concatenate(chunks)
        means[pair] = float(data.mean())
        variances[pair] = float(data.var(ddof=1)) if data.size > 1 else 0.0
        sizes[pair] = data.size
    f_value = sum(c * means[p] for p, c in F_COEFFICIENTS.items() if p in means)
    f_var = sum(c**2 * variances[p] / sizes[p] for p, c in F_COEFFICIENTS.items() if p in means)
    for per_pair in block_products:
        shared = [p for p in per_pair if p in F_COEFFICIENTS]
        for i in range(len(shared)):
            for j in range(i + 1, len(shared)):
                pi, pj = shared[i], shared[j]
                a, b = per_pair[pi], per_pair[pj]
                if a.size > 1:
                    cov = float(np.cov(a, b, ddof=1)[0, 1])
                    f_var += (
                        2.0 * F_COEFFICIENTS[pi] * F_COEFFICIENTS[pj] * cov * a.size
                        / (sizes[pi] * sizes[pj])
                    )
    label = {p: format_varset(p) for p in pools}
    return (
        {label[p]: means[p] for p in pools},
        {label[p]: float(np.sqrt(variances[p] / sizes[p])) for p in pools},
        {label[p]: sizes[p] for p in pools},
        float(f_value),
        float(np.sqrt(max(f_var, 0.0))),
        choice_counts,
    )


class TestCounterRng:
    def test_pinned_stream(self):
        """Golden values guard the mixer against silent drift."""
        got = CounterRng(42).uniforms(np.arange(4, dtype=np.uint64), 0)
        expected = [0.80155884, 0.45010883, 0.39986439, 0.54529241]
        assert np.allclose(got, expected, atol=5e-9)

    def test_chunking_does_not_matter(self):
        rng = CounterRng(99)
        whole = rng.uniforms(np.arange(100, dtype=np.uint64), 1)
        parts = np.concatenate(
            [
                rng.uniforms(np.arange(0, 37, dtype=np.uint64), 1),
                rng.uniforms(np.arange(37, 100, dtype=np.uint64), 1),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_scalar_matches_vector(self):
        rng = CounterRng(5, salt=3)
        block = rng.uniforms(np.arange(10, dtype=np.uint64), 0)
        for i in range(10):
            assert rng.uniform(i, 0) == block[i]

    def test_streams_separate_by_seed_salt_and_draw(self):
        idx = np.arange(64, dtype=np.uint64)
        base = CounterRng(7).uniforms(idx, 0)
        assert not np.array_equal(base, CounterRng(8).uniforms(idx, 0))
        assert not np.array_equal(base, CounterRng(7, salt=1).uniforms(idx, 0))
        assert not np.array_equal(base, CounterRng(7).uniforms(idx, 1))
        assert np.array_equal(base, CounterRng(7).uniforms(idx, 0))

    def test_values_are_uniform_enough(self):
        u = CounterRng(1).uniforms(np.arange(20000, dtype=np.uint64), 0)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.var(u) - 1.0 / 12.0) < 0.01


class TestChoices:
    def test_choice_counts(self):
        assert len(ALL_CHOICES) == 16
        assert len(DATA_CHOICES) == 9

    def test_labels(self):
        assert MeasurementChoice((), ()).label() == "(-,-)"
        assert MeasurementChoice((X1, X2), (Y1, Y2)).label() == "(X1X2,Y1Y2)"
        assert MeasurementChoice((), (Y2,)).label() == "(-,Y2)"

    def test_sequential_pairs_survive_any_partner(self):
        for choice in ALL_CHOICES:
            if choice.alice == (X1, X2):
                assert frozenset({X1, X2}) in admissible_data(choice)
            if choice.bob == (Y1, Y2):
                assert frozenset({Y1, Y2}) in admissible_data(choice)

    def test_intervening_measurement_spoils_cross_pairs(self):
        # X1 before X2 disturbs Alice, so X2Y1 is lost
        spoiled = admissible_data(MeasurementChoice((X1, X2), (Y1,)))
        assert frozenset({X2, Y1}) not in spoiled
        assert spoiled == {frozenset({X1, X2})}
        # Y1 before Y2 disturbs Bob, so X1Y2 is lost
        spoiled = admissible_data(MeasurementChoice((X1,), (Y1, Y2)))
        assert frozenset({X1, Y2}) not in spoiled

    def test_clean_cross_pairs_are_kept(self):
        assert admissible_data(MeasurementChoice((X1,), (Y2,))) == {
            frozenset({X1, Y2})
        }
        assert admissible_data(MeasurementChoice((X1, X2), (Y2,))) == {
            frozenset({X1, X2}),
            frozenset({X1, Y2}),
        }

    def test_non_data_choices_yield_nothing(self):
        for alice, bob in (((), ()), ((X1,), ()), ((), (Y1,)), ((X2,), (Y2,))):
            assert admissible_data(MeasurementChoice(alice, bob)) == frozenset()

    def test_every_f_pair_has_a_source(self):
        covered = set()
        for choice in DATA_CHOICES:
            covered |= admissible_data(choice)
        assert set(F_COEFFICIENTS) <= covered


class TestSingleShot:
    def test_deterministic_outcome(self):
        """A state polarized along the measured axis always answers +1."""
        rho = product_state(plane_vector(0.0), plane_vector(0.0))
        settings = {X1: plane_vector(0.0), Y2: plane_vector(0.0)}
        for shot in range(10):
            record = simulate_shot(
                rho, MeasurementChoice((X1,), (Y2,)), settings, seed=3, shot_index=shot
            )
            assert record.outcomes == {X1: 1, Y2: 1}

    def test_repeated_direction_repeats_outcome(self):
        """Measuring the same direction twice in sequence must agree."""
        settings = {X1: plane_vector(0.7), X2: plane_vector(0.7)}
        choice = MeasurementChoice((X1, X2), ())
        for shot in range(20):
            record = simulate_shot(singlet_state(), choice, settings, 11, shot)
            assert record.outcomes[X1] == record.outcomes[X2]
            assert record.product(frozenset({X1, X2})) == 1

    def test_requires_two_qubit_state(self):
        with pytest.raises(ValueError):
            simulate_shot(
                np.eye(2) / 2, MeasurementChoice((X1,), ()), SETTINGS, seed=0
            )

    def test_empty_choice_measures_nothing(self):
        record = simulate_shot(singlet_state(), MeasurementChoice((), ()), SETTINGS, 0)
        assert record.outcomes == {}


class TestBlockEquivalence:
    def test_block_matches_shot_loop(self):
        """Vectorized sampling must replay the scalar path bit for bit."""
        ids = np.arange(32, dtype=np.uint64)
        for choice in DATA_CHOICES:
            block = simulate_choice_block(singlet_state(), choice, SETTINGS, 17, ids)
            for i in ids:
                record = simulate_shot(
                    singlet_state(), choice, SETTINGS, 17, shot_index=int(i)
                )
                for var, values in block.items():
                    assert record.outcomes[var] == values[int(i)], (choice.label(), i)

    def test_block_respects_salt(self):
        ids = np.arange(64, dtype=np.uint64)
        choice = MeasurementChoice((), (Y1, Y2))
        a = simulate_choice_block(singlet_state(), choice, SETTINGS, 17, ids)
        b = simulate_choice_block(singlet_state(), choice, SETTINGS, 17, ids, salt=1)
        assert not np.array_equal(a[Y2], b[Y2])


class TestEstimateF:
    def test_deterministic(self):
        a = estimate_f(singlet_state(), SETTINGS, 999, 123)
        b = estimate_f(singlet_state(), SETTINGS, 999, 123)
        assert a.f_value == b.f_value
        assert a.f_stderr == b.f_stderr
        assert a.choice_counts == b.choice_counts

    def test_shot_split(self):
        est = estimate_f(singlet_state(), SETTINGS, 20000, 7)
        counts = list(est.choice_counts.values())
        assert sum(counts) == 20000
        assert sorted(counts) == [2222] * 7 + [2223] * 2  # 20000 = 9*2222 + 2

    def test_pools_cover_f_and_diagnostics(self):
        est = estimate_f(singlet_state(), SETTINGS, 900, 7)
        assert sorted(est.terms) == ["X1X2", "X1Y1", "X1Y2", "X2Y1", "Y1Y2"]
        for term in est.terms.values():
            assert term.count > 0
            assert term.stderr >= 0.0

    def test_estimates_tsirelson_on_singlet(self):
        est = estimate_f(singlet_state(), SETTINGS, 20000, 7)
        assert abs(est.f_value - SQRT8) < 5 * est.f_stderr
        assert 0.0 < est.f_stderr < 0.05

    def test_stderr_scales_with_shots(self):
        small = estimate_f(singlet_state(), SETTINGS, 20000, 7)
        big = estimate_f(singlet_state(), SETTINGS, 80000, 7)
        assert big.f_stderr / small.f_stderr == pytest.approx(0.5, abs=0.1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            estimate_f(singlet_state(), SETTINGS, 0, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        shots=st.one_of(st.integers(1, 60), st.sampled_from([999, 18001])),
        seed=st.sampled_from([0, 7, 123, 12345, 2**40 + 1]),
        state=st.sampled_from(sorted(STATES)),
    )
    @example(shots=18001, seed=7, state="singlet")
    @example(shots=999, seed=123, state="product")
    def test_integer_moments_match_float_pooling(self, shots, seed, state):
        """Means and counts are exact; stderrs agree with the float
        pooling to within its rounding."""
        est = estimate_f(STATES[state], SETTINGS, shots, seed)
        means, stderrs, sizes, f_value, f_stderr, choice_counts = pooled_reference(
            STATES[state], SETTINGS, shots, seed
        )
        assert {k: t.mean for k, t in est.terms.items()} == means
        assert {k: t.count for k, t in est.terms.items()} == sizes
        assert est.f_value == f_value
        assert est.choice_counts == choice_counts
        for label, term in est.terms.items():
            assert term.stderr == pytest.approx(stderrs[label], rel=1e-12, abs=0.0)
        assert est.f_stderr == pytest.approx(f_stderr, rel=1e-12, abs=0.0)

    def test_memory_does_not_grow_with_pooled_shots(self):
        """Pools are integer sums; only one choice block is resident."""
        tracemalloc.start()
        try:
            estimate_f(singlet_state(), SETTINGS, 10**6, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15_000_000

    def test_report_does_not_depend_on_hash_seed(self):
        """Pairs are frozensets, whose iteration order follows the hash seed."""
        src = str(Path(corrineq.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-m", "corrineq.cli", "reproduce", "protocol-mc",
                 "--shots", "20000", "--format", "json"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["ok"] is True


class TestSignaling:
    def test_polarized_state_shows_the_gap(self):
        """Polarized along y2: certainty alone, 3/4 after a y1 probe."""
        rho = product_state(plane_vector(0.0), SETTINGS[Y2])
        report = signaling_test(rho, SETTINGS, 20001, 7)
        assert report.p_alone == 1.0
        assert report.se_alone == 0.0
        assert abs(report.p_after_y1 - 0.75) < 5 * report.se_after
        assert report.shots_per_arm == (10000, 10001)
        assert report.difference == report.p_alone - report.p_after_y1
        assert report.z_score > 10.0

    def test_singlet_shows_no_gap(self):
        """Maximally mixed marginal: 1/2 in both arms."""
        report = signaling_test(singlet_state(), SETTINGS, 20000, 7)
        assert abs(report.p_alone - 0.5) < 5 * report.se_alone
        assert abs(report.z_score) < 5.0

    def test_aligned_probes_are_silent(self):
        """A repeated direction cannot disturb; both arms are certain."""
        settings = dict(SETTINGS)
        settings[Y1] = settings[Y2]
        rho = product_state(plane_vector(0.0), settings[Y2])
        report = signaling_test(rho, settings, 1000, 7)
        assert report.p_alone == 1.0
        assert report.p_after_y1 == 1.0
        assert report.z_score == 0.0
