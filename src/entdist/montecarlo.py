"""Seeded stochastic simulation of each scheme's rounds.

Rounds are the atomic time unit: one round performs the scheme's trial budget
K, counts latched pairs (never more than the memory capacity), and advances
simulated time by t_round. Rounds are statistically independent; latched but
unconsumed memories do not carry over.

Reproducibility contract
------------------------
All randomness comes from numpy's PCG64 (128-bit state) in the state that
SeedSequence(seed) gives it, derived by the pool hash that also gives the
seed column (_pool_hash; see _streams()), so identical (config, controls)
inputs give bit-identical outputs on any platform running the same numpy
release. Sweep points draw from independent streams whose sub-seeds are a
pure function of (master seed, point index); see subseeds(). Each function
imports numpy where it uses it, so importing this module loads none: an
analytic run never does.
"""

from __future__ import annotations

import math
import struct
from itertools import pairwise
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .analytic import PointSummary, SeriesColumns, feasibility_check
from .params import _MAX_ROUNDS, McControls, ParameterError, _require_seed

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike

__all__ = [
    "rng_for_seed",
    "subseeds",
    "EstimateColumns",
    "estimate_series",
]

# Largest array, in cells, one sampling step allocates: a sweep's law window
# and simulate_rounds' histogram of a round's latched pairs. Wider ones are refused.
_MAX_CELLS = 4_000_000
# Cells of all the law windows one estimate_series call samples: about a minute of
# work at the 0.1-0.15 us per cell measured on a 2-core x86-64 host.
_MAX_SAMPLED_CELLS = 500_000_000
_LAW_BATCH_CELLS = 4096  # cells of one block of laws: small, so peak memory does not grow


class RateEstimate(NamedTuple):
    """Monte Carlo outcome: elapsed = n_rounds * t_round, rate = successes / elapsed."""

    successes: int
    elapsed: float
    rate: float
    stderr: float      # standard error of the rate over per-round success counts
    n_rounds: int
    seed: int


def rng_for_seed(seed: int) -> np.random.Generator:
    """PCG64(SeedSequence(seed))'s generator, set by _streams as in a sweep.

    So rng_for_seed(row.seed) reproduces a row's stream. seed must be an integer in [0, 2**64).
    """
    _require_seed(seed)
    return next(_streams([seed]))


def subseed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point `index`; see subseeds()."""
    return int(subseeds(master_seed, [index])[0])


def _hash_constants(const: int, mult: int, count: int) -> list[int]:
    """The running constants of count hashmix calls of numpy SeedSequence's pool hash.

    Call i xors with constant i, steps it (times mult, mod 2**32) and
    multiplies by the stepped value, constant i + 1; the sequence depends on
    nothing else.
    """
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFF_FFFF)
    return consts


# numpy's pool hash (numpy/random/bit_generator.pyx) on a 4-word pool: 4 hashmix calls on the
# entropy words, then 3 per source word, one for each other pool word in turn, each mixed into
# that word as mix(x, y) = (L x - R y) xorshifted; at most 8 calls on the output half-words,
# which read pool words 0, 1, 2, 3, 0, ... in turn. All arithmetic is mod 2**32.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _pool_hash(entropy: list[int], n: int, n_words: int) -> list[list[int]]:
    """SeedSequence(lane j's entropy words).generate_state(n_words, np.uint64) of each lane j < n, without numpy.

    numpy's pool hash, bit for bit, on packed integer lanes: each entropy
    word is one int holding point j's 32-bit word in its 64-bit lane j, at
    most 4 of them; missing words are zero, as numpy pads (so trailing zero
    words hash like the padding). A product of two 32-bit values fits a
    lane, so each hashmix or mix step is a few int operations over every
    lane at once and no lane carries into the next. Returns n_words lists
    of n uint64 ints; n_words is at most 4.
    """
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")  # 1 in each lane
    low = 0xFFFF_FFFF * ones

    def hashmix(word: int, calls: Iterator[tuple[int, int]]) -> int:
        xor, mult = next(calls)
        word = (word ^ xor * ones) * mult & low
        return word ^ word >> 16 & low

    calls = pairwise(_POOL_HASH)
    pool = [hashmix(word, calls) for word in entropy + [0] * (4 - len(entropy))]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                word = (_MIX_MULT_L * pool[dst] & low) + (2**32 - _MIX_MULT_R) * hashmix(pool[src], calls) & low
                pool[dst] = word ^ word >> 16 & low  # mix: L x - R y, mod 2**32
    calls = pairwise(_OUTPUT_HASH)
    halves = [hashmix(pool[i % 4], calls) for i in range(2 * n_words)]  # they read pool words 0, 1, 2, 3, 0, ...
    return [list(struct.unpack(f"<{n}Q", (lo | hi << 32).to_bytes(8 * n, "little")))
            for lo, hi in zip(halves[0::2], halves[1::2])]


def _hash_subseeds(master_seed: int, indices: Sequence[int]) -> list[int]:
    """SeedSequence((master_seed, i)).generate_state(1, np.uint64)[0] of each index i, without numpy.

    _pool_hash's 1-word case over the entropy words (the master seed's
    words, its high word only if nonzero, then the index), a master word
    repeated in every lane. master_seed must be a valid seed (_require_seed)
    and each index an integer in [0, 2**32); they are not checked here.
    """
    n = len(indices)
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")  # 1 in each lane
    master = [master_seed & 0xFFFF_FFFF] + ([master_seed >> 32] if master_seed >> 32 else [])
    index = int.from_bytes(struct.pack(f"<{n}Q", *indices), "little")
    (seeds,) = _pool_hash([word * ones for word in master] + [index], n, 1)
    return seeds


def subseeds(master_seed: int, indices: ArrayLike) -> np.ndarray:
    """Sub-seeds of many sweep points of one master seed, as a uint64 array of the indices' shape.

    Splitting function: the first uint64 state word of
    SeedSequence((master_seed, index)); rng_for_seed(sub-seed) reproduces the
    point's stream. It is _hash_subseeds' value, the seed column of
    run_scenario: _pool_hash's 1-word case over all indices at once.
    master_seed must be an integer in [0, 2**64) and every index an integer
    in [0, 2**32), so that the entropy words (master, then index) fit the
    4-word pool; ParameterError otherwise.
    """
    import numpy as np

    _require_seed(master_seed, "master seed")
    index = np.asarray(indices)
    if index.size and not (index.dtype.kind in "iu" and index.min() >= 0 and index.max() < 2**32):
        raise ParameterError("sub-seed indices must be integers in [0, 2**32)")
    seeds = _hash_subseeds(int(master_seed), index.ravel().tolist())  # int: a numpy integer would overflow
    return np.array(seeds, np.uint64).reshape(index.shape)


# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128 in numpy's pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _streams(seeds: ArrayLike) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the state of PCG64(SeedSequence(seed)) of each seed.

    _pool_hash's 4-word case over each seed's low and high 32 bits gives all
    seeds' state words w at once; PCG64's setseq rule
    (pcg_setseq_128_srandom_r) then makes inc = 2 * w2:w3 + 1 and
    state = (w0:w1 + inc) * multiplier + inc, mod 2**128, for each seed.
    """
    import numpy as np

    seeds = np.asarray(seeds, dtype="<u8")
    packed = int.from_bytes(seeds.tobytes(), "little")  # seed j in 64-bit lane j
    low = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * seeds.size, "little")
    rng = np.random.Generator(np.random.PCG64(0))  # its state is set below
    bit_generator, mask = rng.bit_generator, 2**128 - 1  # bound once: Python does not constant-fold 2**128
    for w0, w1, w2, w3 in zip(*_pool_hash([packed & low, packed >> 32 & low], seeds.size, 4)):
        inc = ((w2 << 64 | w3) << 1 | 1) & mask
        state = ((w0 << 64 | w1) + inc) * _PCG64_MULT + inc & mask
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        yield rng


def _law_windows(K: ArrayLike, p_single: ArrayLike, capacity: ArrayLike) -> tuple[np.ndarray, ...]:
    """Columns k, p, inner, lo, hi and last of the law windows lo..hi; lo + last is the cap cell or hi.

    One window per point of the K, p_single and capacity columns. A window is
    mean +- t, t = 11 sd + 40 (one cell at p in {0, 1} or above the
    capacity): Bernstein bounds the mass outside it by
    2 exp(-t^2 / (2 (sd^2 + t/3))) <= 2 exp(-60) < 2e-26, under double
    precision, as t^2 - 120 sd^2 - 40 t = sd^2 + 440 sd >= 0. One of more
    than _MAX_CELLS cells raises ParameterError.
    """
    import numpy as np

    k, p, cap = (np.asarray(column, dtype=float).reshape(-1, 1) for column in (K, p_single, capacity))
    top, mean = np.minimum(k, cap), k * p
    spread = 11.0 * np.sqrt(mean * (1.0 - p)) + 40.0
    first = np.maximum(np.floor(mean - spread), 0.0)
    inner = (0.0 < p) & (p < 1.0) & (first < top)
    lo = np.where(inner, first, np.where(p == 0.0, 0.0, top))
    hi = np.where(inner, np.minimum(k, np.ceil(mean + spread)), lo)
    if (widest := int(np.max(hi - lo, initial=0)) + 1) > _MAX_CELLS:
        raise ParameterError(f"the law window of latched pairs holds at most {_MAX_CELLS} cells, got {widest}")
    return k, p, inner, lo, hi, (np.minimum(hi, top) - lo).astype(np.intp)


def _capped_binomial_laws(k: np.ndarray, p: np.ndarray, inner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          last: np.ndarray) -> Iterator[tuple[list, list, np.ndarray]]:
    """Law of min(Binomial(K, p), capacity) in each _law_windows window, as (lo, cells, w) per block.

    w[r, :cells[r]] is the law from cell lo[r] on, and it is 0 elsewhere, so
    the work is O(min(K, capacity)) for any K and p. A block holds the next
    windows, in the order given, right-padded to the widest of them, in at
    most _LAW_BATCH_CELLS cells (or one wider window). Block rows never
    outnumber _LAW_BATCH_CELLS // (first width), so each block's end is one
    search over that many running maxima of the widths. Along a row, log
    weights sum pmf(j) / pmf(j - 1) from the left and tails sum from the
    right, so the padding adds exact zeros: a law has the same bits in any
    batch.
    """
    import numpy as np

    row_counts = np.arange(1, _LAW_BATCH_CELLS + 1)  # a block's rows if it ended at each of its rows
    span = hi - lo  # window width - 1
    spans = span[:, 0].astype(np.intp)
    los, ends, last = lo[:, 0].astype(np.intp).tolist(), (last[:, 0] + 1).tolist(), last[:, 0]
    with np.errstate(divide="ignore"):  # log 0 = -inf at p in {0, 1}
        odds = np.where(inner, np.log(p) - np.log1p(-p), 0.0)
    start, total = 0, len(los)
    while start < total:
        # The block's width if it ended at each row it can reach; its cells, rows x width, never shrink.
        widest = np.maximum.accumulate(spans[start:start + max(_LAW_BATCH_CELLS // (spans[start] + 1), 1)]) + 1
        rows = max(int(np.searchsorted(widest * row_counts[:len(widest)], _LAW_BATCH_CELLS, side="right")), 1)
        stop, width = start + rows, int(widest[rows - 1])
        b, cell, row = slice(start, stop), np.arange(1.0, width), np.arange(rows)
        log_w = np.zeros((rows, width))  # log pmf(lo) cancels when the window is normalised
        steps = log_w[:, 1:]
        with np.errstate(divide="ignore"):  # log 0 = -inf in the padding
            j = lo[b] + cell
            np.subtract(k[b], j, out=steps)
            steps += 1.0
            steps /= j
            steps[cell > span[b]] = 0.0
            np.log(steps, out=steps)
            steps += odds[b]
            np.cumsum(steps, axis=1, out=steps)
            log_w -= log_w.max(axis=1, keepdims=True)
            w = np.exp(log_w, out=log_w)
        tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]  # tail[:, i] = w[:, i:].sum()
        w[row, last[b]] = tail[row, last[b]]
        w /= tail[:, :1]
        yield los[b], ends[b], w
        start = stop


def _window_histograms(windows: tuple[np.ndarray, ...], rngs: Iterator[np.random.Generator],
                       n_rounds: int) -> Iterator[tuple[list, np.ndarray]]:
    """(lo, hist) per law block of _law_windows' windows; hist[r, i] counts rounds latching lo[r] + i pairs.

    Row r draws Multinomial(n_rounds, window) on the next generator of rngs.
    numpy's multinomial draws nothing for a cell of probability 0 and stops
    once every round is placed: the zero-filled law of all min(K, capacity)
    + 1 cells draws the same histogram. A law that multinomial refuses, its
    cells summing past 1 + 1e-12 in double precision (seen in a window of
    about 4 million cells), raises ParameterError.
    """
    import numpy as np

    for lo, cells, laws in _capped_binomial_laws(*windows):
        hist = np.zeros(laws.shape, dtype=np.int64)
        for row, n, law, rng in zip(hist, cells, laws, rngs):  # rngs last: zip stops before it
            try:
                row[:n] = rng.multinomial(n_rounds, law[:n])
            except ValueError:
                raise ParameterError(f"the law window of latched pairs sums past 1 over its {n} cells") from None
        yield lo, hist


def simulate_rounds(point: PointSummary, rng: np.random.Generator, n_rounds: int) -> np.ndarray:
    """Histogram of latched pairs over n_rounds independent rounds.

    Cell j of the returned int64 array counts the rounds that latched j
    pairs; it has min(K, capacity) + 1 cells and sums to n_rounds. More than
    _MAX_CELLS cells raise ParameterError before anything is allocated.
    Draws Multinomial(n_rounds, window) over the window of the law of
    min(Binomial(K, p), capacity) only (_window_histograms, as
    estimate_series does), in O(capacity) work whatever K and n_rounds are,
    and pads it with the empty cells outside.
    """
    import numpy as np

    top = min(point.K, point.capacity)
    if top + 1 > _MAX_CELLS:
        raise ParameterError(f"the histogram of latched pairs holds at most {_MAX_CELLS} cells, "
                             f"got min(K, capacity) + 1 = {top + 1}")
    hist = np.zeros(top + 1, dtype=np.int64)
    windows = _law_windows([point.K], [point.p_single], [point.capacity])
    (lo,), window = next(_window_histograms(windows, iter([rng]), n_rounds))
    hist[lo:lo + window.shape[1]] = window[0, :top + 1 - lo]  # no round latches past the capacity
    return hist


def estimate_rate(point: PointSummary, mc: McControls) -> RateEstimate:
    """Simulate mc.n_rounds rounds of an evaluated point and estimate its rate.

    The one-point case of estimate_series, on the stream of
    rng_for_seed(mc.seed). Raises ParameterError before simulating when an
    AFC round cannot fit the spin coherence time; its message reads
    point.cfg, which evaluate sets.
    """
    if not point.feasible:
        report = feasibility_check(point.cfg)
        raise ParameterError(f"round budget {report.used_s:.6g} s exceeds spin coherence "
                             f"{report.limit_s:.6g} s at L = {point.cfg.link.L} km")
    (successes,), (rate,), (stderr,) = estimate_series(SeriesColumns(*([value] for value in point[:7])),
                                                       [mc.seed], mc)
    return RateEstimate(successes, mc.n_rounds * point.t_round, rate, stderr, mc.n_rounds, mc.seed)


class EstimateColumns(NamedTuple):
    """estimate_series' result: one entry per point; None where a point is not feasible."""

    successes: list[int | None]
    mc_rate: list[float | None]
    mc_stderr: list[float | None]


def estimate_series(columns: SeriesColumns, seeds: ArrayLike, mc: McControls) -> EstimateColumns:
    """Monte Carlo successes, rates and standard errors of the points of evaluate_series columns.

    Point i draws on the stream of rng_for_seed(seeds[i]), one reused
    generator set to each point's state in turn (_streams), over its law
    window only (_window_histograms); each point reads its K, p_single,
    capacity, t_round and feasible entries, and the points that are not
    feasible get None. seeds is a uint64 array (every value a valid seed)
    or a sequence of integers in [0, 2**64), one per point; the seeds, the
    window widths (at most _MAX_CELLS cells) and their sum over the feasible
    points (at most _MAX_SAMPLED_CELLS) are checked before any draw. Points draw in order of
    window width, so that a block pads its rows little; each result goes
    back to its point's place. One integer product per block gives each
    window's exact S1 = sum h_i i and S2 = sum h_i i^2 over its cells
    i = 0, 1, ...; with n = n_rounds, successes = S1 + lo n,
    rate = successes / (n t_round) and
    stderr = sqrt((n S2 - S1^2) / (n^2 (n - 1))) / t_round, the fraction
    correctly rounded (0 for a single round).
    """
    import numpy as np

    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        for seed in seeds:
            _require_seed(seed)
        seeds = np.asarray(seeds, dtype=np.uint64)
    n_points = len(columns.K)
    if len(seeds) != n_points:
        raise ParameterError(f"seeds must hold one seed per point: got {len(seeds)} for {n_points} points")
    index = np.flatnonzero(np.array(columns.feasible, dtype=bool))
    windows = _law_windows(*(np.array(column, dtype=float)[index] for column in columns[:3]))
    if (cells := int(np.sum(windows[4] - windows[3])) + len(index)) > _MAX_SAMPLED_CELLS:
        raise ParameterError(f"the law windows of latched pairs hold {cells} cells over the sampled points; at most "
                             f"{_MAX_SAMPLED_CELLS} are allowed: lower memory.N, N_A or afc.N_AFC, or sweep "
                             f"fewer L_km x p_m points")
    order = np.argsort((windows[4] - windows[3])[:, 0], kind="stable")
    windows, index = tuple(column[order] for column in windows), index[order]
    successes, rates, stderrs = [None] * n_points, [None] * n_points, [None] * n_points
    n, t_round = mc.n_rounds, columns.t_round
    scale = n * n * max(n - 1, 1)
    points = iter(index.tolist())
    for lo, hist in _window_histograms(windows, _streams(seeds[index]), n):
        width = hist.shape[1]
        exact = object if n * (width - 1) ** 2 > _MAX_ROUNDS else np.int64  # int64 would wrap S2 silently
        sums = hist.astype(exact) @ np.arange(width, dtype=exact)[:, None] ** np.array([1, 2], dtype=exact)
        for low, (s1, s2), i in zip(lo, sums.tolist(), points):  # points last: zip stops before it
            successes[i] = total = s1 + low * n
            rates[i] = total / (n * t_round[i])
            stderrs[i] = math.sqrt((n * s2 - s1 * s1) / scale) / t_round[i]
    return EstimateColumns(successes, rates, stderrs)
