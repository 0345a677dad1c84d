"""Shot-level simulation of the hybrid measurement protocol.

Each run draws one of 16 measurement-choice pairs: each side either
skips, measures its early observable, its late observable, or both in
sequence.  Only some choices yield usable correlator data; those are
pooled into the hybrid combination with propagated standard errors.
The choices, time slots, qubits and usable pairs all follow from the
shipped hybrid scenario (hybrid.scn).

Randomness is a counter-based stream: draw d of shot s hashes the
counter key(seed, salt) + (2s + d)·golden through a 64-bit mixer, so
any shot can be generated independently and results never depend on
chunking.  The estimators check the state and embed the projectors once
per call, build each choice's sampler once, and count its joint outcomes
over blocks of consecutive shots, whose counters are one scalar plus a
ramp fixed per call; a slot with a certain outcome draws no words.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import catalog
from .dsl import VariableId
from .errors import DimensionMismatch, NotAShotRange
from .lhv import _assignment_rows
from .polynomials import derive_inequality, format_varset
from .quantum import _embed, direction_for, projectors, qubit_layout, validate_density

DRAWS_PER_SHOT = 2  # one joint draw at each of the two time slots
WORD_BITS = 53  # a word is the top 53 bits of the mixed counter: u = word / 2^53
BLOCK_SHOTS = 1 << 16  # shots per simulate_choice_block call; 4 uint64 arrays, a mask and picks: ~2 MB, an L2 cache

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_STRIDE = np.uint64(DRAWS_PER_SHOT * _GOLDEN & _MASK)  # the counter step from one shot to the next
_GROUP = 1 << WORD_BITS  # the span of a word; slot-1 pick i puts a shot's key in group [i·2^53, (i + 1)·2^53)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_HYBRID = catalog.load_scenario("hybrid.scn")
_QUBIT = qubit_layout(_HYBRID.variables, _HYBRID)
# each qubit's variables in time order (variable order: letter, then index)
_TIMELINES = [
    sorted((v for v in _QUBIT if _QUBIT[v] == qubit), key=VariableId.sort_key) for qubit in (0, 1)
]
(X1, X2), (Y1, Y2) = _TIMELINES
_SLOT = {var: slot for line in _TIMELINES for slot, var in enumerate(line)}
# each slot size's int8 sign rows, +1 first; a slot holds at most one variable per qubit
_SLOT_SIGNS = [-_assignment_rows(k).astype(np.int8) for k in range(len(_TIMELINES) + 1)]


def _mix64(z, tmp=None):
    """SplitMix64 finaliser, in place on the uint64 array z (tmp: scratch like z)."""
    tmp = np.empty_like(z) if tmp is None else tmp
    with np.errstate(over="ignore"):  # wraparound mod 2^64 is the point
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            z ^= tmp
            z *= mult
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp
    return z


@lru_cache(maxsize=64)
def _key(seed: int, salt: int) -> int:
    """The stream key of (seed, salt), mixed once per pair and kept."""
    # 0-d arrays, not scalars: unsigned array arithmetic wraps silently
    base = _mix64(np.array(seed & _MASK, dtype=np.uint64))
    salted = _mix64(np.array(salt & _MASK, dtype=np.uint64))
    return int(_mix64(base ^ salted))


def _shot_range(shot_ids) -> range:
    if isinstance(shot_ids, range) and shot_ids.step == 1:
        return shot_ids
    raise NotAShotRange(f"shot ids must be a range with step 1, got {shot_ids!r:.40}")


class CounterRng:
    """Stateless uniform stream: value = f(seed, salt, counter).

    Shot ids come as a range with step 1.  mixed(shots, draw) is each
    shot's mixed 64-bit counter, words(shots, draw) its top 53 bits, and
    uniforms(shots, draw) the same stream as float64 in [0, 1), word / 2^53.
    """

    def __init__(self, seed: int, salt: int = 0):
        self.key = _key(seed, salt)

    def mixed(self, shot_ids, draw: int, out=None, scratch=None, steps=None) -> np.ndarray:
        """mix64(key + (2·shot + draw)·golden), in place in out; steps: the shots' counter steps
        0, 2·golden, 4·golden, ... as `_buffers` holds them; scratch: the mixer's (each new if None)."""
        shots = _shot_range(shot_ids)
        steps = np.arange(len(shots), dtype=np.uint64) * _STRIDE if steps is None else steps
        first = (self.key + (DRAWS_PER_SHOT * shots.start + draw) * _GOLDEN) & _MASK
        return _mix64(np.add(steps, np.uint64(first), out=out), scratch)

    def words(self, shot_ids, draw: int, out=None, scratch=None, steps=None) -> np.ndarray:
        """The top 53 bits of `mixed`, in place in out."""
        z = self.mixed(shot_ids, draw, out, scratch, steps)
        return np.right_shift(z, np.uint64(64 - WORD_BITS), out=z)

    def uniforms(self, shot_ids, draw: int) -> np.ndarray:
        return self.words(shot_ids, draw) / float(_GROUP)

    def uniform(self, shot_index: int, draw: int) -> float:
        return float(self.uniforms(range(shot_index, shot_index + 1), draw)[0])


class MeasurementChoice(NamedTuple):
    """What each side measures this shot, in time order."""

    alice: tuple[VariableId, ...]
    bob: tuple[VariableId, ...]

    def label(self) -> str:
        left = "".join(str(v) for v in self.alice) or "-"
        right = "".join(str(v) for v in self.bob) or "-"
        return f"({left},{right})"


def _menu(timeline):
    """Every subset of one party's variables, each in time order."""
    return [c for k in range(len(timeline) + 1) for c in combinations(timeline, k)]


ALL_CHOICES = tuple(
    MeasurementChoice(a, b) for a in _menu(_TIMELINES[0]) for b in _menu(_TIMELINES[1])
)

# pair -> coefficient in the hybrid combination, in source order
F_COEFFICIENTS = dict(derive_inequality(catalog.load_expression("hybrid.rsx")).terms)


def admissible_data(choice: MeasurementChoice) -> frozenset:
    """Correlator pairs this choice legitimately estimates.

    A measured pair counts when the scenario puts it in a common context
    or declares it sequential, and nothing outside the pair was measured
    earlier on either variable's party: only an earlier measurement on
    the same system disturbs a later one, and spacelike partners commute.
    These are exactly the pairs whose Born-rule product expectation is
    the undisturbed correlator.  9 of the 16 choices admit a term of the
    hybrid combination, and several yield two or three pairs at once.
    """
    measured = choice.alice + choice.bob

    def undisturbed(pair):
        return not any(
            w not in pair and _HYBRID.same_party(v, w) and _SLOT[w] < _SLOT[v]
            for v in pair
            for w in measured
        )

    return frozenset(
        frozenset(pair)
        for pair in combinations(measured, 2)
        if (_HYBRID.in_common_context(*pair) or _HYBRID.is_sequential(*pair))
        and undisturbed(pair)
    )


DATA_CHOICES = tuple(c for c in ALL_CHOICES if not admissible_data(c).isdisjoint(F_COEFFICIENTS))


class ShotRecord(NamedTuple):
    choice: MeasurementChoice
    outcomes: dict[VariableId, int]

    def product(self, pair) -> int:
        a, b = pair
        return self.outcomes[a] * self.outcomes[b]


def _prepared(rho, settings, choices):
    """`rho` checked as a two-qubit state, and the projectors (+1, -1) on its party's qubit of each
    variable the choices measure, in measuring order; every sampler starts here, once per call."""
    rho = validate_density(np.asarray(rho, dtype=complex))
    if rho.shape != (4, 4):
        raise DimensionMismatch("the protocol simulates a two-qubit state, got a 2x2 state")
    measured = dict.fromkeys(var for choice in choices for var in choice.alice + choice.bob)
    return rho, {var: [_embed(p, _QUBIT[var]) for p in projectors(direction_for(settings, var))] for var in measured}


def _slots(choice, ops):
    """Per time slot: its variables, int8 sign matrix and outcome projectors.

    A variable's slot is its place in its party's time order, and its
    projectors (`ops`, from `_prepared`) act on its party's qubit;
    cross-party operators in a slot commute, so the slot is sampled
    jointly.  Sign rows are outcomes, +1 first; columns are the slot's
    variables, Alice's first.  An empty slot has one empty outcome, whose
    projector is the identity.
    """
    measured = choice.alice + choice.bob
    slots = []
    for slot in range(DRAWS_PER_SHOT):
        variables = [var for var in measured if _SLOT[var] == slot]
        signs = _SLOT_SIGNS[len(variables)]
        projs = []
        for row in signs:
            proj = np.eye(4, dtype=complex)
            for sign, var in zip(row, variables):
                proj = proj @ ops[var][0 if sign == 1 else 1]
            projs.append(proj)
        slots.append((variables, signs, projs))
    return slots


def _choice_tables(rho, choice, ops):
    """Exact two-stage outcome distribution for one choice.

    Returns (slot variable lists, each slot's int8 sign matrix, p1 over
    slot-1 outcomes, conditional p2[o1] over slot-2 outcomes), each
    probability from the Born rule with collapse between slots.  `rho`
    and `ops` come from `_prepared`.
    """
    (vars1, signs1, projs1), (vars2, signs2, projs2) = _slots(choice, ops)
    p1 = np.zeros(len(projs1))
    p2 = np.zeros((len(projs1), len(projs2)))
    for i, proj1 in enumerate(projs1):
        collapsed = proj1 @ rho @ proj1.conj().T
        weight = float(np.trace(collapsed).real)
        p1[i] = weight
        if weight <= 0.0:
            p2[i] = 1.0 / len(projs2)  # never sampled; keep the row valid
            continue
        for j, proj2 in enumerate(projs2):
            p2[i, j] = float(np.trace(proj2 @ collapsed @ proj2.conj().T).real) / weight
    return vars1, vars2, signs1, signs2, p1, p2


def _cumulative(p):
    cum = np.cumsum(p, axis=-1)
    if np.abs(cum[..., -1] - 1.0).max() > 1e-9:
        raise ArithmeticError("outcome probabilities do not sum to 1")
    cum[..., -1] = 1.0
    return cum


def simulate_shot(rho, choice, settings, seed, shot_index=0, salt=0) -> ShotRecord:
    """One protocol shot; the float reference for the samplers' integer cut points.

    Draw 0 picks the early slot's joint outcome from the Born-rule tables'
    p1, draw 1 the late slot's from p2 given it; outcomes are per variable.
    """
    rng = CounterRng(seed, salt)
    rho, ops = _prepared(rho, settings, [choice])
    vars1, vars2, signs1, signs2, p1, p2 = _choice_tables(rho, choice, ops)

    def pick(variables, p, draw):
        if not variables:
            return 0  # empty slot: its one outcome, no draw consumed
        return int(np.searchsorted(_cumulative(p), rng.uniform(shot_index, draw), side="right"))

    i = pick(vars1, p1, 0)
    j = pick(vars2, p2[i], 1)
    outcomes = dict(zip(vars1 + vars2, signs1[i].tolist() + signs2[j].tolist()))
    return ShotRecord(choice, outcomes)


def _cut_points(p):
    """Integer cut points ceil(c·2^53) of p's cumulative c, along its last axis.

    With c taken after a running max and a clip to [0, 1], u < c holds
    exactly when word < ceil(c·2^53), so the first outcome with u < c
    (what the float kernel picked) is the number of cut points at or
    below the word.  The last cut point is 2^53, which no word reaches.
    """
    c = np.clip(np.maximum.accumulate(_cumulative(p), axis=-1), 0.0, 1.0)
    return np.ceil(c * float(1 << WORD_BITS)).astype(np.uint64)


class ChoiceSampler(NamedTuple):
    """One choice's exact outcome distribution as integer cut points.

    Joint outcome m = i·k2 + j (slot-1 outcome i, slot-2 outcome j) has
    int8 sign row signs[m], one column per variable, and takes the shots
    whose key pick1·2^53 + late word lies in [bounds[m], bounds[m + 1]).
    """

    variables: tuple[VariableId, ...]
    signs: np.ndarray
    cut1: np.ndarray  # slot 1's cut points but the last, which is 2^53
    bounds: tuple[int, ...]  # sorted, k1·k2 + 1 of them, from 0 to k1·2^53

    def column(self, var) -> np.ndarray:  # var's sign in each joint outcome
        return self.signs[:, self.variables.index(var)].astype(np.int64)


def _sampler(vars1, vars2, signs1, signs2, p1, p2) -> ChoiceSampler:
    signs = np.hstack([np.repeat(signs1, len(signs2), axis=0), np.tile(signs2, (len(signs1), 1))])
    # group i starts at i·2^53; its row of cut points ends at 2^53, the next group's start
    bounds = [(i << WORD_BITS) + cut for i, row in enumerate(_cut_points(p2).tolist()) for cut in row]
    return ChoiceSampler(tuple(vars1 + vars2), signs, _cut_points(p1)[:-1], (0, *bounds))


def choice_sampler(rho, choice, settings) -> ChoiceSampler:
    """The sampler of one choice on one state; build once, sample many blocks."""
    rho, ops = _prepared(rho, settings, [choice])
    return _sampler(*_choice_tables(rho, choice, ops))


def _buffers(shots):
    """Arrays for blocks of up to `shots` shots, reused block after block: (the counter steps of
    consecutive shots, early, late, mixer scratch) in uint64, a comparison mask and the slot-1 picks."""
    words = np.empty((3, shots), dtype=np.uint64)
    steps = np.arange(shots, dtype=np.uint64) * _STRIDE
    return (steps, *words, np.empty(shots, dtype=bool), np.empty(shots, dtype=np.uint8))


def _drawn(cuts) -> bool:
    """Whether a slot's picks read its words: not when every cut point sits at a group's edge."""
    return any(int(cut) % _GROUP for cut in cuts)


def simulate_choice_block(sampler: ChoiceSampler, seed, shot_indices, salt=0, out=None) -> np.ndarray:
    """int64 count of each joint outcome over a block of shots, a range of consecutive ids.

    Draws as simulate_shot does, so the counts are its histogram.  A slot
    whose cut points all sit at 0 or 2^53 (an empty slot, or a certain
    outcome) draws no words: its pick is the same in every shot, and the
    other slot's words do not depend on it.  `out` (from `_buffers`, with
    room for the block) holds the working arrays.
    """
    shots = _shot_range(shot_indices)
    rng = CounterRng(seed, salt)
    steps, early, late, scratch, above, picks = (b[:len(shots)] for b in out or _buffers(len(shots)))
    early = rng.mixed(shots, 0, early, scratch, steps) if _drawn(sampler.cut1) else None
    late = rng.words(shots, 1, late, scratch, steps) if _drawn(sampler.bounds) else None
    return _joint_counts(sampler, early, late, above, picks, unshifted=True)


def _joint_counts(sampler, early, late, above, picks, unshifted=False):
    """Joint-outcome counts from the slots' words; overwrites both and the work arrays `above` and `picks`.

    Words are 53-bit, except `unshifted` early ones: full mixed counters,
    whose top 53 bits are the words, so word >= cut exactly when counter
    >= cut·2^11 (for cut < 2^53).  A slot that `_drawn` says needs no
    words may pass None for them.
    """
    cut1 = sampler.cut1.tolist()
    # shots with key >= bound, once per distinct bound; count m is tail[m] - tail[m + 1].  Group i
    # (shots with pick1 >= i) takes every shot past a cut point at 0 and none past one at 2^53
    tails = {0: len(above), sampler.bounds[-1]: 0}
    tails.update({i << WORD_BITS: len(above) if cut == 0 else 0 for i, cut in enumerate(cut1, 1)})
    inside = [(i, cut) for i, cut in enumerate(cut1, 1) if 0 < cut < _GROUP]
    base = cut1.count(0)  # the pick every shot reaches: cut points are sorted, those at 0 first
    picks.fill(base)
    for i, cut in inside:
        np.greater_equal(early, np.uint64(cut << (64 - WORD_BITS) if unshifted else cut), out=above)
        tails[i << WORD_BITS] = np.count_nonzero(above)
        picks += above
    if late is not None:
        late |= np.left_shift(picks, np.uint64(WORD_BITS), out=early) if inside else np.uint64(base << WORD_BITS)
    for bound in sampler.bounds:
        if bound not in tails:
            tails[bound] = np.count_nonzero(np.greater_equal(late, bound, out=above))
    return -np.diff([tails[bound] for bound in sampler.bounds])


def _blocks(start: int, count: int):
    """Shot ids start .. start+count-1 as consecutive ranges of at most BLOCK_SHOTS ids."""
    ids = range(start, start + count)
    return (ids[lo:lo + BLOCK_SHOTS] for lo in range(0, count, BLOCK_SHOTS))


class CorrelatorEstimate(NamedTuple):
    label: str
    mean: float
    stderr: float
    count: int


class ProtocolEstimate(NamedTuple):
    """Pooled correlator estimates and the combined hybrid value."""

    terms: dict[str, CorrelatorEstimate]
    f_value: float
    f_stderr: float
    shots: int
    seed: int
    choice_counts: dict[str, int]


def _covariance(m: int, sum_ab: int, sum_a: int, sum_b: int) -> Fraction:
    """Exact ddof=1 covariance of two length-m columns, from their sums."""
    return Fraction(m * sum_ab - sum_a * sum_b, m * (m - 1)) if m > 1 else Fraction(0)


def estimate_f(rho, settings, shots: int, seed: int) -> ProtocolEstimate:
    """Monte Carlo estimate of the hybrid combination.

    Shots are split as evenly as possible over the 9 data-yielding
    choices (global shot ids stay consecutive per choice, so estimates
    are reproducible and chunk-free) and counted BLOCK_SHOTS at a time.
    Every pooled value is a ±1 product, so a pool is kept as two
    integers, its sum S and count n: the mean is S/n and the ddof=1
    variance (n² − S²)/(n(n − 1)).  A choice feeding two pools of the
    combination also keeps the sum of their shot-wise products, which
    gives the covariance that the standard error propagates.  Each sum
    is a dot product of the joint-outcome counts with a sign column;
    memory is one block's buffers; variances are exact, rounded once.
    """
    if shots < len(DATA_CHOICES):
        raise ValueError(f"need at least {len(DATA_CHOICES)} shots, one per data choice")
    n_choices = len(DATA_CHOICES)
    counts = [shots // n_choices + (i < shots % n_choices) for i in range(n_choices)]
    rho, ops = _prepared(rho, settings, DATA_CHOICES)
    buffers = _buffers(min(BLOCK_SHOTS, counts[0]))  # counts[0] is the largest
    sums: dict[frozenset, list[int]] = {}  # pair -> [S, n]
    shared_blocks = []  # (pair, pair, m * covariance) per choice feeding both
    next_id = 0
    choice_counts = {}
    for choice, count in zip(DATA_CHOICES, counts):
        choice_counts[choice.label()] = count
        start, next_id = next_id, next_id + count
        # sorted: frozenset order follows the hash seed, term order must not
        pairs = sorted(admissible_data(choice), key=format_varset)
        in_f = [pair for pair in pairs if pair in F_COEFFICIENTS]
        sampler = _sampler(*_choice_tables(rho, choice, ops))
        hist = sum(simulate_choice_block(sampler, seed, ids, out=buffers) for ids in _blocks(start, count))
        # a pair's product in each joint outcome; its sums are dot products with hist
        products = {pair: math.prod(map(sampler.column, pair)) for pair in pairs}
        choice_sums = {pair: int(hist @ products[pair]) for pair in pairs}
        cross_sums = {(pi, pj): int(hist @ (products[pi] * products[pj])) for pi, pj in combinations(in_f, 2)}
        for pair in pairs:
            pool = sums.setdefault(pair, [0, 0])
            pool[0] += choice_sums[pair]
            pool[1] += count
        for (pi, pj), sum_ab in cross_sums.items():
            cov = _covariance(count, sum_ab, choice_sums[pi], choice_sums[pj])
            shared_blocks.append((pi, pj, count * cov))

    estimates, means, mean_vars = {}, {}, {}
    for pair, (total, n) in sums.items():
        means[pair] = total / n
        mean_vars[pair] = _covariance(n, n, total, total) / n
        label = format_varset(pair)
        estimates[label] = CorrelatorEstimate(label, means[pair], math.sqrt(mean_vars[pair]), n)

    # with a shot per data choice, every term of F has a pool
    f_value = sum(coeff * means[pair] for pair, coeff in F_COEFFICIENTS.items())
    f_var = sum(coeff**2 * mean_vars[pair] for pair, coeff in F_COEFFICIENTS.items())
    # blocks feeding two pools at once correlate those pool means
    for pi, pj, m_cov in shared_blocks:
        f_var += 2 * F_COEFFICIENTS[pi] * F_COEFFICIENTS[pj] * m_cov / (sums[pi][1] * sums[pj][1])
    return ProtocolEstimate(estimates, float(f_value), math.sqrt(max(f_var, 0)), shots, seed, choice_counts)


class SignalingReport(NamedTuple):
    """P(Y2 = +1) with and without a preceding Y1 measurement.

    A nonzero difference is the formal signaling carried by temporal
    correlations on one side; it says nothing about communication
    between the separated parties.
    """

    p_alone: float
    se_alone: float
    p_after_y1: float
    se_after: float
    shots_per_arm: tuple[int, int]

    @property
    def difference(self) -> float:
        return self.p_alone - self.p_after_y1

    @property
    def z_score(self) -> float:
        spread = np.hypot(self.se_alone, self.se_after)
        if spread == 0.0:
            return float("inf") if self.difference != 0.0 else 0.0
        return float(self.difference / spread)


def signaling_test(rho, settings, shots: int, seed: int) -> SignalingReport:
    """Compare the late-time marginal across the two Bob-only choices.

    The first shots // 2 ids measure Y2 alone, the rest Y1 then Y2;
    each arm is sampled BLOCK_SHOTS at a time into joint-outcome counts.
    """
    if shots < 2:
        raise ValueError("need at least two shots, one per arm")
    n_alone = shots // 2
    n_after = shots - n_alone
    arms = (
        (MeasurementChoice((), (Y2,)), 0, n_alone),
        (MeasurementChoice((), (Y1, Y2)), n_alone, n_after),
    )
    p = []
    rho, ops = _prepared(rho, settings, [choice for choice, _, _ in arms])
    buffers = _buffers(min(BLOCK_SHOTS, n_after))
    for choice, start, count in arms:
        sampler = _sampler(*_choice_tables(rho, choice, ops))
        hist = sum(simulate_choice_block(sampler, seed, ids, salt=1, out=buffers) for ids in _blocks(start, count))
        p.append(int(hist @ (sampler.column(Y2) == 1)) / count)
    p_a, p_b = p
    se_a = float(np.sqrt(p_a * (1 - p_a) / n_alone))
    se_b = float(np.sqrt(p_b * (1 - p_b) / n_after))
    return SignalingReport(p_a, se_a, p_b, se_b, (n_alone, n_after))
