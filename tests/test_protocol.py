"""Counter-based sampling, admissible choices, and protocol statistics."""

import json
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corrineq
from corrineq import protocol
from corrineq.cli import main
from corrineq.dsl import VariableId
from corrineq.errors import DimensionMismatch, MissingSetting, NotAShotRange
from corrineq.lhv import _assignment_rows
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
    _choice_tables,
    _cumulative,
    _joint_counts,
    _prepared,
    _sampler,
    admissible_data,
    choice_sampler,
    estimate_f,
    signaling_test,
    simulate_choice_block,
    simulate_shot,
)
from corrineq.quantum import (
    hybrid_settings,
    maximally_mixed,
    plane_vector,
    product_state,
    sequential_correlator,
    singlet_state,
    spatial_correlator,
)

SQRT8 = 2.0 * np.sqrt(2.0)

SETTINGS = hybrid_settings()

STATES = {
    "singlet": singlet_state(),
    "product": product_state(plane_vector(0.3), plane_vector(1.1)),
}


def _slot_picks(words, p, picks1=None):
    """Outcome index per shot in one slot, from its 53-bit words: the
    per-shot kernel the joint-outcome counts replaced, kept as their
    bit-exact reference.

    p is the slot's outcome distribution, or for the second slot one row
    per first-slot outcome, selected per shot by picks1.  With c the
    cumulative after a running max and a clip to [0, 1], u < c holds
    exactly when word < ceil(c·2^53), so the first outcome with u < c is
    the number of cut points at or below the word.
    """
    c = np.clip(np.maximum.accumulate(_cumulative(p), axis=-1), 0.0, 1.0)
    cuts = np.ceil(c * 2.0**53).astype(np.uint64)[..., :-1]
    if cuts.ndim == 2:
        cuts = cuts[0] if len(cuts) == 1 else (col.take(picks1) for col in cuts.T)
    picks = np.zeros(len(words), dtype=np.intp)
    for cut in cuts:
        picks += words >= cut
    return picks


GOLDEN = 0x9E3779B97F4A7C15


def counter_words(seed, salt, shot_ids, draw):
    """The 53-bit words of draw `draw` for any shot ids, from the counter
    formula mix64(key + (2·id + draw)·golden) >> 11 in wrapping uint64
    arithmetic on an id array: the per-id path that the range kernel's
    one scalar plus a fixed ramp replaced."""
    ids = np.fromiter(shot_ids, dtype=np.uint64, count=len(shot_ids))
    key = CounterRng(seed, salt).key
    z = ids * np.uint64(2 * GOLDEN % 2**64) + np.uint64((key + draw * GOLDEN) % 2**64)
    return protocol._mix64(z) >> np.uint64(11)


def choice_tables(rho, choice, settings):
    """One choice's exact tables from a raw state and settings."""
    state, ops = _prepared(rho, settings, [choice])
    return _choice_tables(state, choice, ops)


def reference_picks(rho, choice, settings, seed, shot_indices, salt=0):
    """Per-shot (slot-1, slot-2) outcome indices from _slot_picks on the
    counter formula's words; an empty slot has the single outcome 0."""
    vars1, vars2, _, _, p1, p2 = choice_tables(rho, choice, settings)
    none = np.zeros(len(shot_indices), dtype=np.intp)
    picks1 = _slot_picks(counter_words(seed, salt, shot_indices, 0), p1) if vars1 else none
    picks2 = _slot_picks(counter_words(seed, salt, shot_indices, 1), p2, picks1) if vars2 else none
    return picks1, picks2


def reference_block(rho, choice, settings, seed, shot_indices, salt=0):
    """One int8 outcome array per measured variable: the per-variable
    path simulate_choice_block had before it counted joint outcomes."""
    vars1, vars2, signs1, signs2, _, _ = choice_tables(rho, choice, settings)
    picks1, picks2 = reference_picks(rho, choice, settings, seed, shot_indices, salt)
    values = {var: signs1[:, k].take(picks1) for k, var in enumerate(vars1)}
    values.update({var: signs2[:, k].take(picks2) for k, var in enumerate(vars2)})
    return values


def histogram(picks1, picks2, k1, k2):
    """Count of each joint outcome i·k2 + j."""
    return np.bincount(picks1 * k2 + picks2, minlength=k1 * k2)


def reference_counts(rho, choice, settings, seed, shot_indices, salt=0):
    _, _, signs1, signs2, _, _ = choice_tables(rho, choice, settings)
    picks = reference_picks(rho, choice, settings, seed, shot_indices, salt)
    return histogram(*picks, len(signs1), len(signs2))


def joint_index(sampler, outcomes):
    """The sampler's joint outcome that a shot record's outcomes spell."""
    row = [outcomes[var] for var in sampler.variables]
    (hits,) = np.nonzero((sampler.signs == row).all(axis=1))
    assert len(hits) == 1
    return int(hits[0])


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
        ids = range(next_id, next_id + count)
        next_id += count
        values = reference_block(rho, choice, settings, seed, ids)
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


def first_above(cum, u):
    """The float kernel's second-slot pick: the first cumulative above u."""
    return (u[:, None] < cum).argmax(axis=1)


def float_picks(p1, p2, u1, u2):
    """The sampling step simulate_choice_block used before integer cut
    points: searchsorted on the first slot's cumulative, first-True argmax
    over each shot's row of second-slot cumulatives."""
    picks1 = np.searchsorted(_cumulative(p1), u1, side="right")
    picks2 = first_above(_cumulative(p2)[picks1], u2)
    return picks1, picks2


def float_choice_counts(rho, choice, settings, seed, shot_indices, salt=0):
    """Joint-outcome counts of the float kernel used before integer cut
    points.  An empty slot's single outcome takes every uniform."""
    rng = CounterRng(seed, salt)
    _, _, _, _, p1, p2 = choice_tables(rho, choice, settings)
    picks1, picks2 = float_picks(p1, p2, rng.uniforms(shot_indices, 0), rng.uniforms(shot_indices, 1))
    return histogram(picks1, picks2, *p2.shape)


def _normalised(draw):
    weights, excess = draw
    w = np.array(weights)
    positive = w > 0.0
    w[positive] *= (1.0 + excess - w[~positive].sum()) / w[positive].sum()
    return w


def born_rows(k, rows=1):
    """Outcome distributions as the Born rule computes them in floats:
    exact zeros, tiny negative weights, and totals up to 1e-10 off 1, so
    some partial sums pass 1 before the last entry is forced to 1."""
    entry = st.one_of(st.just(0.0), st.floats(-1e-15, -1e-18), st.floats(1e-3, 1.0))
    row = st.tuples(
        st.lists(entry, min_size=k, max_size=k).filter(lambda w: max(w) > 0.0),
        st.floats(-1e-10, 1e-10),
    ).map(_normalised)
    return st.lists(row, min_size=rows, max_size=rows).map(np.array)


def boundary_words(p):
    """Every cut point ceil(c·2^53) of p's cumulative, the word below each,
    and the two extreme words."""
    c = np.clip(np.maximum.accumulate(_cumulative(p), axis=-1), 0.0, 1.0)
    cuts = np.ceil(c * 2.0**53).astype(np.uint64).ravel()
    words = {int(t) + d for t in cuts for d in (-1, 0)} | {0, 2**53 - 1}
    return sorted(w for w in words if 0 <= w < 2**53)


def exact_rows(k, rows=1):
    """born_rows, or rows with one exact 1 and exact zeros elsewhere."""
    one_hot = st.integers(0, k - 1).map(lambda i: np.eye(k)[i])
    row = st.one_of(born_rows(k).map(lambda r: r[0]), one_hot)
    return st.lists(row, min_size=rows, max_size=rows).map(np.array)


@st.composite
def exact_tables(draw):
    """(p1, p2) with 1, 2 or 4 outcomes per slot; one outcome is an empty slot."""
    k1, k2 = draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([1, 2, 4]))
    return draw(exact_rows(k1))[0], draw(exact_rows(k2, rows=k1))


def sign_rows(k):
    """The int8 sign rows of a slot with k = 2^m outcomes."""
    return -_assignment_rows(k.bit_length() - 1).astype(np.int8)


def random_words(n):
    return st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n)


class TestCounterRng:
    def test_pinned_stream(self):
        """Golden values guard the mixer against silent drift."""
        got = CounterRng(42).uniforms(range(4), 0)
        expected = [0.80155884, 0.45010883, 0.39986439, 0.54529241]
        assert np.allclose(got, expected, atol=5e-9)

    def test_pinned_words(self):
        got = CounterRng(42).words(range(4), 0)
        assert got.dtype == np.uint64
        assert got.tolist() == [
            7219800151606398, 4054219913238450, 3601658229721317, 4911557380431486
        ]

    def test_words_are_the_uniforms_scaled(self):
        """uniforms is words / 2^53, computed in place in the out buffer."""
        rng = CounterRng(7, salt=3)
        idx = range(5000)
        out = np.empty(len(idx), dtype=np.uint64)
        words = rng.words(idx, 1, out=out)
        assert words is out
        assert int(words.max()) < 2**53
        assert np.array_equal(words / 2.0**53, rng.uniforms(idx, 1))

    def test_chunking_does_not_matter(self):
        rng = CounterRng(99)
        whole = rng.uniforms(range(100), 1)
        parts = np.concatenate(
            [
                rng.uniforms(range(0, 37), 1),
                rng.uniforms(range(37, 100), 1),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_scalar_matches_vector(self):
        rng = CounterRng(5, salt=3)
        block = rng.uniforms(range(10), 0)
        for i in range(10):
            assert rng.uniform(i, 0) == block[i]

    def test_streams_separate_by_seed_salt_and_draw(self):
        idx = range(64)
        base = CounterRng(7).uniforms(idx, 0)
        assert not np.array_equal(base, CounterRng(8).uniforms(idx, 0))
        assert not np.array_equal(base, CounterRng(7, salt=1).uniforms(idx, 0))
        assert not np.array_equal(base, CounterRng(7).uniforms(idx, 1))
        assert np.array_equal(base, CounterRng(7).uniforms(idx, 0))

    def test_values_are_uniform_enough(self):
        u = CounterRng(1).uniforms(range(20000), 0)
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

    def test_clean_cross_pairs_are_kept(self):
        assert admissible_data(MeasurementChoice((X1,), (Y2,))) == {
            frozenset({X1, Y2})
        }
        assert admissible_data(MeasurementChoice((X1, X2), (Y2,))) == {
            frozenset({X1, X2}),
            frozenset({X1, Y2}),
        }

    def test_derived_table(self):
        """The pairs each choice admits, read off hybrid.scn; * marks data."""
        table = {
            "(-,-)": (), "(-,Y1)": (), "(-,Y2)": (), "(-,Y1Y2)*": ("Y1Y2",),
            "(X1,-)": (), "(X1,Y1)": ("X1Y1",), "(X1,Y2)*": ("X1Y2",),
            "(X1,Y1Y2)*": ("X1Y1", "Y1Y2"),
            "(X2,-)": (), "(X2,Y1)*": ("X2Y1",), "(X2,Y2)": ("X2Y2",),
            "(X2,Y1Y2)*": ("X2Y1", "Y1Y2"),
            "(X1X2,-)*": ("X1X2",), "(X1X2,Y1)*": ("X1X2", "X1Y1"),
            "(X1X2,Y2)*": ("X1X2", "X1Y2"), "(X1X2,Y1Y2)*": ("X1X2", "X1Y1", "Y1Y2"),
        }
        derived = {
            choice.label() + "*" * (choice in DATA_CHOICES): tuple(
                sorted(format_varset(pair) for pair in admissible_data(choice))
            )
            for choice in ALL_CHOICES
        }
        assert list(derived.items()) == list(table.items())

    def test_party_mirror_symmetry(self):
        """Swapping X with Y and Alice with Bob maps the table onto itself."""
        mirror = {X1: Y1, X2: Y2, Y1: X1, Y2: X2}

        def swap(variables):
            return tuple(mirror[v] for v in variables)

        for choice in ALL_CHOICES:
            image = MeasurementChoice(swap(choice.bob), swap(choice.alice))
            assert admissible_data(image) == {
                frozenset(swap(pair)) for pair in admissible_data(choice)
            }, choice.label()
            assert (image in DATA_CHOICES) == (choice in DATA_CHOICES)

    def test_non_data_choices_admit_no_term_of_f(self):
        for choice in ALL_CHOICES:
            if choice not in DATA_CHOICES:
                assert admissible_data(choice).isdisjoint(F_COEFFICIENTS), choice.label()

    def test_every_f_pair_has_a_source(self):
        covered = set()
        for choice in DATA_CHOICES:
            covered |= admissible_data(choice)
        assert set(F_COEFFICIENTS) <= covered


def ideal_correlator(rho, settings, pair):
    """The undisturbed correlator: a tensor expectation across the parties,
    the two-measurement sequence on one qubit within a party."""
    a, b = sorted(pair, key=VariableId.sort_key)
    if a.letter != b.letter:
        return spatial_correlator(rho, settings[a], settings[b])
    return sequential_correlator(rho, settings[a], settings[b], subsystem="XY".index(a.letter))


def born_expectation(rho, choice, settings, pair):
    """Exact expectation of a measured pair's product under the choice."""
    vars1, vars2, signs1, signs2, p1, p2 = choice_tables(rho, choice, settings)
    column = {var: signs1[:, [k]] for k, var in enumerate(vars1)}
    column.update({var: signs2[:, k] for k, var in enumerate(vars2)})
    a, b = pair
    return float((p1[:, None] * p2 * column[a] * column[b]).sum())


class TestBornRule:
    def test_admissible_pairs_are_the_undisturbed_correlators(self):
        """On random mixed states and settings, every admitted pair's exact
        product expectation is its ideal correlator, and every rejected
        measured pair misses it on some draw."""
        rng = np.random.default_rng(2024)
        worst_miss = {}
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            raw = rng.normal(size=(4, 3))
            settings = {v: row / np.linalg.norm(row) for v, row in zip((X1, X2, Y1, Y2), raw)}
            for choice in ALL_CHOICES:
                admitted = admissible_data(choice)
                for pair in combinations(choice.alice + choice.bob, 2):
                    miss = abs(
                        born_expectation(rho, choice, settings, pair)
                        - ideal_correlator(rho, settings, pair)
                    )
                    if frozenset(pair) in admitted:
                        assert miss < 1e-12, (choice.label(), pair)
                    else:
                        key = (choice.label(), format_varset(pair))
                        worst_miss[key] = max(worst_miss.get(key, 0.0), miss)
        assert len(worst_miss) == 7  # measured pairs that an earlier measurement disturbs
        assert min(worst_miss.values()) > 1e-3, worst_miss


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
        with pytest.raises(DimensionMismatch, match="^the protocol simulates a two-qubit state, got a 2x2 state$"):
            simulate_shot(
                np.eye(2) / 2, MeasurementChoice((X1,), ()), SETTINGS, seed=0
            )

    def test_empty_choice_measures_nothing(self):
        record = simulate_shot(singlet_state(), MeasurementChoice((), ()), SETTINGS, 0)
        assert record.outcomes == {}


class TestBlockEquivalence:
    def test_block_matches_shot_loop(self):
        """A one-shot block counts 1 at the joint outcome simulate_shot
        draws, for every choice, empty slots included; a block's counts
        are the sum over its shots."""
        ids = range(32)
        for rho, choice in iproduct(STATES.values(), ALL_CHOICES):
            sampler = choice_sampler(rho, choice, SETTINGS)
            total = np.zeros(len(sampler.signs), dtype=np.int64)
            for i in range(len(ids)):
                record = simulate_shot(rho, choice, SETTINGS, 17, shot_index=i)
                assert set(sampler.variables) == set(record.outcomes), choice.label()
                one_hot = np.zeros_like(total)
                one_hot[joint_index(sampler, record.outcomes)] = 1
                counts = simulate_choice_block(sampler, 17, ids[i : i + 1])
                assert counts.dtype == np.int64
                assert np.array_equal(counts, one_hot), (choice.label(), i)
                total += one_hot
            assert np.array_equal(simulate_choice_block(sampler, 17, ids), total), choice.label()

    def test_block_respects_salt(self):
        ids = range(64)
        sampler = choice_sampler(singlet_state(), MeasurementChoice((), (Y1, Y2)), SETTINGS)
        a = simulate_choice_block(sampler, 17, ids)
        b = simulate_choice_block(sampler, 17, ids, salt=1)
        assert a.sum() == b.sum() == 64
        assert not np.array_equal(a, b)

    def test_reused_buffers_count_like_fresh_ones(self):
        """One set of buffers carries every choice's blocks, long and short,
        with the last block's words and picks still in it."""
        buffers = protocol._buffers(300)
        for rho, choice in iproduct(STATES.values(), ALL_CHOICES):
            sampler = choice_sampler(rho, choice, SETTINGS)
            for start, count in ((0, 300), (4000, 37), (70, 1)):
                ids = range(start, start + count)
                want = simulate_choice_block(sampler, 17, ids)
                assert np.array_equal(simulate_choice_block(sampler, 17, ids, out=buffers), want), choice.label()

    def test_blocks_are_consecutive_ranges(self, monkeypatch):
        monkeypatch.setattr(protocol, "BLOCK_SHOTS", 64)
        blocks = list(protocol._blocks(10, 150))
        assert blocks == [range(10, 74), range(74, 138), range(138, 160)]

    def test_words_with_scratch_match_fresh_words(self):
        """Words written into given out, scratch and counter-step arrays are
        the fresh ones, and both are the counter formula's."""
        rng = CounterRng(3, salt=1)
        idx = range(100, 1100)
        out, scratch = np.empty(1000, dtype=np.uint64), np.full(1000, 12345, dtype=np.uint64)
        steps = protocol._buffers(1000)[0]
        assert np.array_equal(rng.words(idx, 1, out, scratch, steps), rng.words(idx, 1))
        assert np.array_equal(rng.words(idx, 1), counter_words(3, 1, idx, 1))

    @pytest.mark.parametrize("ids", [
        np.arange(4, dtype=np.uint64), [0, 1, 2, 3], (0, 1), 7, range(0, 8, 2), range(8, 0, -1),
    ], ids=["array", "list", "tuple", "int", "step-2", "step-minus-1"])
    def test_shot_ids_must_be_a_step_one_range(self, ids):
        rng = CounterRng(3)
        sampler = choice_sampler(singlet_state(), MeasurementChoice((X1,), (Y2,)), SETTINGS)
        for call in (lambda: rng.words(ids, 0), lambda: rng.uniforms(ids, 1),
                     lambda: simulate_choice_block(sampler, 3, ids)):
            with pytest.raises(NotAShotRange, match="^shot ids must be a range with step 1, got "):
                call()


class TestCutPoints:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from([(1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (4, 4)]),
        data=st.data(),
    )
    def test_integer_picks_match_float_kernel(self, shape, data):
        """Counting cut points ceil(c·2^53) <= word picks the first outcome
        with u < c, at every cut point and one word below it.  searchsorted
        needs a sorted array, so the old first slot is the reference only
        where the cumulative is sorted; the first-True reading, which the
        old second slot always used, is the reference everywhere."""
        k1, k2 = shape
        p1 = data.draw(born_rows(k1))[0]
        p2 = data.draw(born_rows(k2, rows=k1))
        w1 = np.array(boundary_words(p1) + data.draw(random_words(32)), dtype=np.uint64)
        got1 = _slot_picks(w1, p1)
        assert np.array_equal(got1, first_above(_cumulative(p1), w1 / 2.0**53))

        # every row's boundary words, under every first-slot outcome
        words = boundary_words(p2)
        w2 = np.array(words * k1, dtype=np.uint64)
        rows = np.repeat(np.arange(k1), len(words))
        got2 = _slot_picks(w2, p2, rows)
        assert np.array_equal(got2, first_above(_cumulative(p2)[rows], w2 / 2.0**53))

        if np.all(np.diff(_cumulative(p1)) >= 0.0):
            tail = data.draw(random_words(max(len(w1) - len(words), 0)))
            w2 = np.array((words + tail)[: len(w1)], dtype=np.uint64)
            want1, want2 = float_picks(p1, p2, w1 / 2.0**53, w2 / 2.0**53)
            assert np.array_equal(got1, want1)
            assert np.array_equal(_slot_picks(w2, p2, got1), want2)

    @pytest.mark.parametrize("state", sorted(STATES))
    def test_protocol_cumulatives_are_sorted(self, state):
        """On the protocol's own states searchsorted reads sorted
        cumulatives, so the old and new first-slot picks agree there."""
        for choice in ALL_CHOICES:
            *_, p1, p2 = choice_tables(STATES[state], choice, SETTINGS)
            assert np.all(np.diff(_cumulative(p1)) >= 0.0), choice.label()
            assert np.all(np.diff(_cumulative(p2), axis=-1) >= 0.0), choice.label()

    @pytest.mark.parametrize("state", sorted(STATES))
    def test_block_matches_float_kernel(self, state):
        ids = range(1000, 21000)
        for choice in ALL_CHOICES:
            sampler = choice_sampler(STATES[state], choice, SETTINGS)
            got = simulate_choice_block(sampler, 12345, ids, salt=1)
            want = float_choice_counts(STATES[state], choice, SETTINGS, 12345, ids, salt=1)
            assert np.array_equal(got, want), choice.label()

    @pytest.mark.parametrize("state", sorted(STATES))
    def test_counts_match_the_slot_picks_histogram(self, state):
        """20,000 ids per choice: the counts are the histogram of the
        per-shot picks that _slot_picks makes from the same words."""
        ids = range(5000, 25000)
        for choice, salt in iproduct(ALL_CHOICES, (0, 1)):
            sampler = choice_sampler(STATES[state], choice, SETTINGS)
            got = simulate_choice_block(sampler, 99, ids, salt)
            want = reference_counts(STATES[state], choice, SETTINGS, 99, ids, salt)
            assert np.array_equal(got, want), (choice.label(), salt)
            assert got.sum() == len(ids)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.one_of(st.integers(0, 2**20), st.integers(2**40, 2**63 - 2**10)),
        count=st.integers(1, 3 * 64),
        seed=st.integers(0, 2**64 - 1),
        salt=st.sampled_from([0, 1]),
        state=st.sampled_from(sorted(STATES) + ["polarized"]),
        choice=st.sampled_from(ALL_CHOICES),
        data=st.data(),
    )
    def test_range_counts_match_the_slot_picks_histogram(self, start, count, seed, salt, state, choice, data):
        """Past 2^40 a start's counter start·2·golden wraps 2^64 many times;
        the range kernel's one scalar per block must wrap the same way.  The
        estimators' blocks of at most BLOCK_SHOTS ids, one call over the
        whole range, and any two halves of it all count what the per-id
        counter formula's picks do."""
        rho = STATES.get(state, TestBlocks.POLARIZED)
        sampler = choice_sampler(rho, choice, SETTINGS)
        ids = range(start, start + count)
        want = reference_counts(rho, choice, SETTINGS, seed, ids, salt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "BLOCK_SHOTS", 64)
            buffers = protocol._buffers(64)
            blocks = sum(simulate_choice_block(sampler, seed, block, salt, out=buffers)
                         for block in protocol._blocks(start, count))
        assert np.array_equal(blocks, want)
        assert np.array_equal(simulate_choice_block(sampler, seed, ids, salt), want)
        cut = data.draw(st.integers(0, count))
        halves = [simulate_choice_block(sampler, seed, part, salt) for part in (ids[:cut], ids[cut:])]
        assert np.array_equal(halves[0] + halves[1], want)

    @settings(max_examples=300, deadline=None)
    @given(tables=exact_tables())
    @example(tables=(np.array([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])))
    @example(tables=(np.array([0.5, 0.0, 0.0, 0.5]), np.array([[0.0, 0.0, 0.0, 1.0]] * 4)))
    def test_counts_at_every_bound(self, tables):
        """Born rows with exact 0 and 1 entries (cut points 0 and 2^53,
        repeated bounds), zero-weight slot-1 outcomes, an empty slot on
        either side (one outcome), and words at every cut point and one
        below it in both slots: the counts are the _slot_picks histogram."""
        p1, p2 = tables
        (k1,), (_, k2) = p1.shape, p2.shape
        sampler = _sampler([], [], sign_rows(k1), sign_rows(k2), p1, p2)
        shots = list(iproduct(boundary_words(p1), boundary_words(p2)))
        early, late = np.array(shots, dtype=np.uint64).T
        picks1 = _slot_picks(early, p1)
        want = histogram(picks1, _slot_picks(late, p2, picks1), k1, k2)
        work = np.empty(len(late), dtype=bool), np.empty(len(late), dtype=np.uint8)
        got = _joint_counts(sampler, early.copy() if k1 > 1 else None, late.copy(), *work)
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(tables=exact_tables(), start=st.integers(0, 2**40), seed=st.integers(0, 2**32))
    @example(tables=(np.array([0.0, 1.0]), np.array([[0.5, 0.5], [0.3, 0.7]])), start=0, seed=0)
    @example(tables=(np.array([0.0, 0.4, 0.6, 0.0]), np.array([[0.0, 1.0]] * 4)), start=0, seed=0)
    def test_block_counts_at_every_bound(self, tables, start, seed):
        """test_counts_at_every_bound's tables, sampled through
        simulate_choice_block: a slot whose cut points all sit at 0 or 2^53
        draws no words, and the counts are still the _slot_picks histogram
        of the counter formula's words, a certain slot-1 pick past 0
        included."""
        p1, p2 = tables
        (k1,), (_, k2) = p1.shape, p2.shape
        sampler = _sampler([], [], sign_rows(k1), sign_rows(k2), p1, p2)
        ids = range(start, start + 300)
        picks1 = _slot_picks(counter_words(seed, 0, ids, 0), p1)
        want = histogram(picks1, _slot_picks(counter_words(seed, 0, ids, 1), p2, picks1), k1, k2)
        assert np.array_equal(simulate_choice_block(sampler, seed, ids), want)


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

    @pytest.mark.parametrize("shots", [1, 2, 8])
    def test_needs_one_shot_per_data_choice(self, shots):
        """With fewer shots than data choices, F would sum only some of its terms."""
        with pytest.raises(ValueError, match="^need at least 9 shots, one per data choice$"):
            estimate_f(singlet_state(), SETTINGS, shots, 7)

    def test_one_shot_per_data_choice_is_enough(self):
        est = estimate_f(singlet_state(), SETTINGS, len(DATA_CHOICES), 7)
        assert set(est.choice_counts.values()) == {1}
        assert {format_varset(pair) for pair in F_COEFFICIENTS} <= set(est.terms)  # every term of F

    @settings(max_examples=60, deadline=None)
    @given(
        shots=st.one_of(st.integers(len(DATA_CHOICES), 60), st.sampled_from([999, 18001])),
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
        """Pools are integer sums; only one choice block's buffers are resident."""
        tracemalloc.start()
        try:
            estimate_f(singlet_state(), SETTINGS, 10**6, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_800_000  # the per-variable kernel peaked at 6.8 MB

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


class TestBlocks:
    POLARIZED = product_state(plane_vector(0.0), SETTINGS[Y2])

    def run_both(self, shots):
        return (
            estimate_f(singlet_state(), SETTINGS, shots, 7),
            signaling_test(self.POLARIZED, SETTINGS, shots, 7),
        )

    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        default = self.run_both(1000)
        monkeypatch.setattr(protocol, "BLOCK_SHOTS", 7)
        assert self.run_both(1000) == default

    def test_estimators_sample_through_the_module_hook(self, monkeypatch):
        """Both estimators look simulate_choice_block up on the module at
        call time, one block of at most BLOCK_SHOTS consecutive ids a call."""
        monkeypatch.setattr(protocol, "BLOCK_SHOTS", 100)
        calls = []
        inner = protocol.simulate_choice_block

        def spy(sampler, seed, shot_indices, salt=0, out=None):
            calls.append((salt, int(shot_indices[0]), len(shot_indices)))
            return inner(sampler, seed, shot_indices, salt, out=out)

        monkeypatch.setattr(protocol, "simulate_choice_block", spy)
        self.run_both(1000)
        assert len(calls) == 9 * 2 + 2 * 5  # 111- or 112-shot choices; 500-shot arms
        assert all(0 < size <= 100 for _, _, size in calls)
        for salt in (0, 1):  # estimate_f, signaling_test
            blocks = sorted((start, size) for s, start, size in calls if s == salt)
            ends = [start + size for start, size in blocks]
            assert [start for start, _ in blocks] == [0] + ends[:-1]
            assert ends[-1] == 1000

    def test_tables_are_built_once_per_choice(self, monkeypatch, capsys):
        """The default protocol-mc samples 34 blocks (9 choices of 111,111
        shots and two arms of 500,000, 2^16 shots a block) but builds the
        exact tables only once per choice per estimator call: 9 + 2."""
        tables, blocks = [], []
        inner_tables, inner_block = protocol._choice_tables, protocol.simulate_choice_block

        def tables_spy(rho, choice, settings):
            tables.append(choice.label())
            return inner_tables(rho, choice, settings)

        def block_spy(sampler, seed, shot_indices, salt=0, out=None):
            blocks.append(len(shot_indices))
            return inner_block(sampler, seed, shot_indices, salt, out=out)

        monkeypatch.setattr(protocol, "_choice_tables", tables_spy)
        monkeypatch.setattr(protocol, "simulate_choice_block", block_spy)
        assert main(["reproduce", "protocol-mc", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(blocks) == 9 * 2 + 2 * 8 and sum(blocks) == 2 * 10**6
        assert sorted(tables) == sorted([c.label() for c in DATA_CHOICES] + ["(-,Y2)", "(-,Y1Y2)"])

    def test_a_certain_slot_hashes_nothing(self, monkeypatch):
        """Polarized along y2, the (-,Y2) arm's one outcome is certain: its
        blocks call no mixer and count every shot at Y2 = +1, while the
        (-,Y1Y2) arm still hashes both draws of each shot."""
        alone = choice_sampler(self.POLARIZED, MeasurementChoice((), (Y2,)), SETTINGS)
        after = choice_sampler(self.POLARIZED, MeasurementChoice((), (Y1, Y2)), SETTINGS)
        CounterRng(7, salt=1)  # the stream key is mixed once and cached
        mixed = []
        inner = protocol._mix64
        monkeypatch.setattr(protocol, "_mix64", lambda z, tmp=None: mixed.append(len(z)) or inner(z, tmp))
        counts = simulate_choice_block(alone, 7, range(5000), salt=1)
        assert mixed == []
        assert counts.tolist() == [5000, 0] and alone.column(Y2).tolist() == [1, -1]
        assert simulate_choice_block(after, 7, range(5000, 8000), salt=1).sum() == 3000
        assert mixed == [3000, 3000]
        mixed.clear()
        report = signaling_test(self.POLARIZED, SETTINGS, 1000, 7)
        assert report.p_alone == 1.0
        assert mixed == [500, 500]  # the (-,Y1Y2) arm's one block

    def test_memory_does_not_grow_with_blocks(self, monkeypatch):
        """Each block's arrays are freed before the next; only Python-int
        sums carry over, so 4x the shots cost no extra heap."""
        monkeypatch.setattr(protocol, "BLOCK_SHOTS", 1 << 12)
        for run in (
            lambda shots: estimate_f(singlet_state(), SETTINGS, shots, 12345),
            lambda shots: signaling_test(self.POLARIZED, SETTINGS, shots, 12345),
        ):
            run(4 * 10**5)  # fills first-call caches and the interpreter's free lists
            peaks = []
            for shots in (10**5, 4 * 10**5):
                tracemalloc.start()
                try:
                    run(shots)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] <= 64 * 1024, peaks


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

    @pytest.mark.parametrize("shots", [0, 1])
    def test_needs_one_shot_per_arm(self, shots):
        with pytest.raises(ValueError, match="need at least two shots, one per arm"):
            signaling_test(singlet_state(), SETTINGS, shots, 7)

    def test_aligned_probes_are_silent(self):
        """A repeated direction cannot disturb; both arms are certain."""
        settings = dict(SETTINGS)
        settings[Y1] = settings[Y2]
        rho = product_state(plane_vector(0.0), settings[Y2])
        report = signaling_test(rho, settings, 1000, 7)
        assert report.p_alone == 1.0
        assert report.p_after_y1 == 1.0
        assert report.z_score == 0.0


class TestEstimatorInputs:
    """The estimators' samplers check the state and the settings where the
    shot simulator does, so a bad input fails with the package's message."""

    @pytest.mark.parametrize("estimator", [estimate_f, signaling_test])
    def test_one_qubit_state_is_refused(self, estimator):
        """It once failed inside numpy with matmul's core-dimension message."""
        with pytest.raises(DimensionMismatch) as excinfo:
            estimator(maximally_mixed(2), SETTINGS, 100, 7)
        assert str(excinfo.value) == "the protocol simulates a two-qubit state, got a 2x2 state"

    @pytest.mark.parametrize("estimator, variables", [(estimate_f, 4), (signaling_test, 2)])
    def test_inputs_are_prepared_once_per_call(self, monkeypatch, estimator, variables):
        """One state check per call, and one embedded projector pair per
        measured variable, however many choices and slots use them."""
        checked, embedded = [], []
        inner_check, inner_embed = protocol.validate_density, protocol._embed
        monkeypatch.setattr(protocol, "validate_density", lambda rho: checked.append(1) or inner_check(rho))
        monkeypatch.setattr(protocol, "_embed", lambda op, qubit: embedded.append(qubit) or inner_embed(op, qubit))
        estimator(singlet_state(), SETTINGS, 1000, 7)
        assert len(checked) == 1
        assert len(embedded) == 2 * variables

    @pytest.mark.parametrize("run", [
        lambda settings: estimate_f(singlet_state(), settings, 100, 7),
        lambda settings: signaling_test(singlet_state(), settings, 100, 7),
        lambda settings: simulate_shot(singlet_state(), MeasurementChoice((), (Y1, Y2)), settings, 7),
    ], ids=["estimate_f", "signaling_test", "simulate_shot"])
    def test_missing_setting_is_named(self, run):
        """It once raised a bare KeyError printing VariableId(letter='Y', index=2)."""
        settings = {var: vec for var, vec in SETTINGS.items() if var != Y2}
        with pytest.raises(MissingSetting) as excinfo:
            run(settings)
        assert str(excinfo.value) == "no direction given for Y2"
