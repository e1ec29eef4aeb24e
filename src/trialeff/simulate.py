"""Monte Carlo harness: simulate two-arm trials and measure interval coverage.

Each replicate draws true case counts per arm, pushes them through the
diagnostic test at the individual level (a thinning of true cases plus
false positives among non-cases), analyses the observed counts as raw
data, and records whether each requested interval method covered the
true efficacy.

Each replicate draws from its own substream, ``default_rng((seed,
index))``, so the report is bit-identical for a given seed and config
and any single replicate can be drawn again on its own.  The study
computes those substreams' starting states in blocks and sets each on
one reused generator instead of building a generator per replicate.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, EstimationError
from .numerics import _as_count, _check_level, _check_prevalence, _check_range
from .posterior import _METHODS, MIN_GRID_SIZE, _check_grid_size, _interval
from .trial import PERFECT_TEST, DiagnosticProfile, IntervalEstimate, TrialCounts

# numpy's binomial draws take n as an int64; a larger n raises OverflowError.
_MAX_BINOMIAL_N = int(np.iinfo(np.int64).max)

# SeedSequence's hash constants and PCG64's LCG multiplier, as numpy's
# bit_generator.pyx and pcg64.h define them; NEP 19 keeps both seedings stable.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# Replicates per block: substream states computed per numpy pass, and
# replicates drawn before their new counts are evaluated.
_BLOCK = 1024


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one coverage study.

    ``prevalence`` is the true control-arm attack rate; the vaccinated
    arm gets (1 - ve) times that.  ``diagnostic`` shapes the data
    generation only; analysis always runs on the observed counts as if
    the test were perfect.
    """

    n_per_arm: int
    prevalence: float
    ve: float
    diagnostic: DiagnosticProfile = PERFECT_TEST
    replicates: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("conditional", "wald")
    level: float = 0.95
    grid_size: int = MIN_GRID_SIZE

    def __post_init__(self):
        for name in ("n_per_arm", "replicates", "seed"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        if not 1 <= self.n_per_arm <= _MAX_BINOMIAL_N:
            raise DomainError(
                f"n_per_arm must lie in [1, {_MAX_BINOMIAL_N}], got {self.n_per_arm}"
            )
        _check_prevalence(self.prevalence)
        _check_range(self.ve, "true efficacy", "[0, 1]")
        if self.replicates < 1:
            raise DomainError(f"replicates must be at least 1, got {self.replicates}")
        _check_level(self.level)
        _check_grid_size(self.grid_size)
        if not self.methods:
            raise DomainError("a coverage study needs at least one interval method")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise DomainError(f"unknown interval methods: {sorted(unknown)}")
        # A repeated name would be evaluated and dumped twice but tallied once.
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))

    @property
    def prevalence_vaccinated(self) -> float:
        return (1.0 - self.ve) * self.prevalence

    def as_dict(self) -> dict:
        echo = asdict(self)
        echo.update(echo.pop("diagnostic"))
        return echo


@dataclass(frozen=True)
class MethodResult:
    """Coverage tally for one interval method; None when nothing was evaluated."""

    coverage: float | None
    mean_width: float | None
    evaluated: int
    failures: int


@dataclass(frozen=True)
class ReplicateRecord:
    """One replicate/method outcome; bounds are None when undefined."""

    replicate: int
    t_v: int
    t_c: int
    method: str
    lower: float | None
    upper: float | None
    covered: bool | None


@dataclass(frozen=True)
class CoverageReport:
    """Per-method empirical coverage for one simulation config.

    ``records`` carries the per-replicate detail when the study was run
    with ``keep_replicates=True``; it is not part of the JSON report.
    """

    config: SimulationConfig
    replicates: int
    methods: dict[str, MethodResult] = field(default_factory=dict)
    records: tuple[ReplicateRecord, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "replicates": self.replicates,
            "methods": {name: asdict(res) for name, res in self.methods.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def replicates_to_csv(report: CoverageReport) -> str:
    """CSV dump of per-replicate outcomes; needs keep_replicates=True."""
    if report.records is None:
        raise DomainError("coverage study was run without keep_replicates")
    lines = ["replicate,t_v,t_c,method,lower,upper,covered"]
    for rec in report.records:
        if rec.covered is None:
            lines.append(f"{rec.replicate},{rec.t_v},{rec.t_c},{rec.method},,,")
        else:
            lines.append(
                f"{rec.replicate},{rec.t_v},{rec.t_c},{rec.method},"
                f"{rec.lower!r},{rec.upper!r},{int(rec.covered)}"
            )
    return "\n".join(lines) + "\n"


def _observe_arm(
    rng: np.random.Generator, n: int, true_rate: float, sensitivity: float, fpr: float
) -> int:
    """True cases thinned by sensitivity plus false positives among non-cases."""
    true_cases = int(rng.binomial(n, true_rate))
    detected = int(rng.binomial(true_cases, sensitivity)) if true_cases else 0
    false_pos = int(rng.binomial(n - true_cases, fpr)) if fpr > 0.0 and n > true_cases else 0
    return detected + false_pos


def simulate_trial(config: SimulationConfig, rng: np.random.Generator) -> TrialCounts:
    """Draw one trial's observed counts under the configured truth."""
    n = config.n_per_arm
    d = config.diagnostic
    se, fpr = d.sensitivity, d.false_positive_rate
    t_v = _observe_arm(rng, n, config.prevalence_vaccinated, se, fpr)
    t_c = _observe_arm(rng, n, config.prevalence, se, fpr)
    return TrialCounts(n_v=n, t_v=t_v, n_c=n, t_c=t_c)


def _substream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``default_rng((seed, i)).bit_generator`` for i in [start, stop).

    ``SeedSequence((seed, i))`` hashes the entropy words ``[seed, i]`` into
    a pool of four uint32 words and the pool into PCG64's 256-bit seed;
    PCG64 then takes two steps of its 128-bit LCG.  The uint32 hashing runs
    over every index at once in numpy, the LCG steps in Python ints.  The
    seed and every index must fit in one uint32 word: a longer entropy
    hashes differently.
    """
    count = stop - start
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    entropy = (np.full(count, seed, np.uint32), np.arange(start, stop, dtype=np.uint32))
    pool = [hashmix(word) for word in entropy] + [hashmix(np.zeros(count, np.uint32)) for _ in range(2)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, np.uint64): eight words hashed from the pool in
    # turn, paired into little-endian uint64 words.
    hash_const = _INIT_B
    words = []
    for j in range(8):
        value = pool[j % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ value >> 16).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * k] | words[2 * k + 1] << 32).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # From state 0: one step gives inc; add the seed; one more step.
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _substreams(seed: int, start: int, stop: int):
    """The generator of each index in [start, stop), drawing as ``default_rng((seed, index))``.

    One generator is reused and its state set for each index, so a caller
    must finish drawing from it before taking the next.  A seed or index
    too large for one uint32 word gets its own ``default_rng``.
    """
    # Seeded arbitrarily: every index replaces its state.
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    # Indices in [start, batched) are computed in blocks: all below 2**32,
    # or none when the seed itself needs a second word.
    batched = min(stop, _MASK32 + 1) if seed <= _MASK32 else start
    for lo in range(start, batched, _BLOCK):
        for pcg_state, inc in _substream_states(seed, lo, min(lo + _BLOCK, batched)):
            state["state"] = {"state": pcg_state, "inc": inc}
            rng.bit_generator.state = state
            yield rng
    for index in range(max(start, batched), stop):
        yield np.random.default_rng((seed, index))


def _outcome(method: str, config: SimulationConfig, counts: TrialCounts) -> tuple:
    """The method's ``(lower, upper, covered)`` on one draw; all None when undefined."""
    try:
        est = _interval(method, counts, config.level, grid_size=config.grid_size)
    except EstimationError:
        return None, None, None
    if isinstance(est, IntervalEstimate):
        lower, upper = est.efficacy_lower, est.efficacy_upper
    else:
        lower, upper = est.lower, est.upper
    return lower, upper, lower <= config.ve <= upper


def coverage_study(config: SimulationConfig, keep_replicates: bool = False) -> CoverageReport:
    """Run the configured replicates and tally per-method coverage.

    Replicates where a method is undefined (zero cells, degenerate
    draws) are counted as failures and excluded from that method's
    coverage denominator.  An outcome depends on the draw only through
    its counts, so each distinct ``(t_v, t_c)`` is evaluated once and its
    outcome reused for every replicate that repeats it, which many do at
    low incidence.

    Replicates run in blocks: a block draws its replicates, evaluates its
    new ``(t_v, t_c)`` one method at a time, then tallies its replicates
    in order.  Evaluating method by method, apart from the draws, is
    measurably faster than interleaving them, and the outcomes are the same.
    """
    methods = config.methods
    outcomes: dict[tuple[int, int], tuple[tuple, ...]] = {}
    covered = [0] * len(methods)
    evaluated = [0] * len(methods)
    # Widths add left to right from 0.0 in replicate order; builtin sum
    # compensates its float additions from Python 3.12 on, which would
    # move last bits.
    widths = [0.0] * len(methods)
    records = [] if keep_replicates else None
    streams = _substreams(config.seed, 0, config.replicates)
    for start in range(0, config.replicates, _BLOCK):
        keys = []
        fresh: dict[tuple[int, int], TrialCounts] = {}
        for rng in itertools.islice(streams, _BLOCK):
            counts = simulate_trial(config, rng)
            key = (counts.t_v, counts.t_c)
            keys.append(key)
            if key not in outcomes:
                fresh.setdefault(key, counts)
        columns = [[_outcome(method, config, counts) for counts in fresh.values()] for method in methods]
        outcomes.update(zip(fresh, zip(*columns)))
        for index, key in enumerate(keys, start):
            outcome = outcomes[key]
            for slot, (lower, upper, hit) in enumerate(outcome):
                if hit is not None:
                    covered[slot] += hit
                    evaluated[slot] += 1
                    widths[slot] += upper - lower
            if records is not None:
                records.extend(
                    ReplicateRecord(index, *key, method, *result)
                    for method, result in zip(methods, outcome)
                )
    return CoverageReport(
        config=config,
        replicates=config.replicates,
        methods={
            method: MethodResult(
                coverage=covered[slot] / done if done else None,
                mean_width=widths[slot] / done if done else None,
                evaluated=done,
                failures=config.replicates - done,
            )
            for slot, (method, done) in enumerate(zip(methods, evaluated))
        },
        records=tuple(records) if keep_replicates else None,
    )
