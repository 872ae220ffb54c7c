"""Deterministic synthetic corpora from known Markov sources.

Generation uses SplitMix64 (Vigna's public-domain mixer) as the random
stream: the algorithm is fixed here, not taken from the platform, so a
seed produces the same corpus on every machine and in every language
that implements the same three-line mixer. Each sequence draws its own
sub-seed from the master stream, making per-sequence generation order
independent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from .language import Label, Sequence, Vocabulary

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MAX_DEMO_ALPHABET = 1024


class SplitMix64:
    """The splitmix64 generator: state += golden gamma, output mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via the 128-bit multiply reduction."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return (self.next_u64() * n) >> 64


def _check_distribution(probs: Iterable[float], what: str) -> None:
    values = list(probs)
    if not all(0.0 <= p <= 1.0 for p in values):  # NaN fails both
        raise ValueError(f"{what} has a probability outside [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{what} sums to {total!r}, not 1")


@dataclass(frozen=True)
class MarkovSpec:
    """A fixed-order Markov source over the alphabet 0..alphabet_size-1.

    transitions maps each length-order context to a dense next-symbol
    probability vector; initial is a distribution over length-order
    prefixes. Order 0 uses the empty tuple as its only context.
    """

    order: int
    alphabet_size: int
    transitions: dict[tuple[int, ...], tuple[float, ...]]
    initial: dict[tuple[int, ...], float]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        for ctx, row in self.transitions.items():
            self._check_context(ctx)
            if len(row) != self.alphabet_size:
                raise ValueError(
                    f"transition row for {ctx} has {len(row)} entries, "
                    f"expected {self.alphabet_size}")
            _check_distribution(row, f"transition row for {ctx}")
        for ctx in self.initial:
            self._check_context(ctx)
        _check_distribution(self.initial.values(), "initial distribution")

    def _check_context(self, ctx: tuple[int, ...]) -> None:
        if len(ctx) != self.order:
            raise ValueError(f"context {ctx} is not length {self.order}")
        if any(not 0 <= s < self.alphabet_size for s in ctx):
            raise ValueError(f"context {ctx} has symbols outside the alphabet")


@dataclass(frozen=True)
class GenConfig:
    n_sequences: int
    length_min: int
    length_max: int
    anomaly_fraction: float
    seed: int

    def __post_init__(self):
        for name in ("n_sequences", "length_min", "length_max", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n_sequences < 0:
            raise ValueError(f"n_sequences must be >= 0, got {self.n_sequences}")
        if self.length_min < 1:
            raise ValueError(f"length_min must be >= 1, got {self.length_min}")
        if self.length_max < self.length_min:
            raise ValueError(
                f"length_max {self.length_max} < length_min {self.length_min}")
        if type(self.anomaly_fraction) not in (int, float) or not 0 <= self.anomaly_fraction <= 1:
            raise ValueError(
                f"anomaly_fraction must be in [0, 1], got {self.anomaly_fraction!r}")


def _table(items: Iterable[tuple[Any, float]]) -> tuple[list[float], list[Any]]:
    """Running sums of the positive probabilities, and the values beside them."""
    sums, values = [], []
    acc = 0.0  # summed p by p, not by sum(), which Python 3.12 made compensated
    for value, p in items:
        if p <= 0.0:
            continue
        acc += p
        sums.append(acc)
        values.append(value)
    if not values:
        raise ValueError("cannot sample from an all-zero distribution")
    return sums, values


def _draw(table: tuple[list[float], list[Any]], u: float) -> Any:
    """The first value whose running sum exceeds u, else the last value."""
    sums, values = table
    i = bisect_right(sums, u)
    return values[i] if i < len(values) else values[-1]


def generate_corpus(
    background: MarkovSpec,
    anomaly: MarkovSpec,
    cfg: GenConfig,
) -> list[tuple[list[int], Label]]:
    """Draw labeled sequences, each from one of the two sources.

    Per sequence: a sub-seed comes off the master stream, then that
    sub-stream decides the label (attack with probability anomaly_fraction),
    the length (uniform on [length_min, length_max]) and the symbols, drawn
    by bisecting per-call cumulative tables. Deterministic given cfg.seed.
    """
    if background.alphabet_size != anomaly.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: {background.alphabet_size} vs {anomaly.alphabet_size}")
    max_order = max(background.order, anomaly.order)
    if cfg.length_min < max_order:
        raise ValueError(
            f"length_min {cfg.length_min} shorter than source order {max_order}")

    sources = [(spec.order, _table(sorted(spec.initial.items())),
                {ctx: _table(enumerate(row)) for ctx, row in spec.transitions.items()})
               for spec in (background, anomaly)]
    master = SplitMix64(cfg.seed)
    corpus: list[tuple[list[int], Label]] = []
    for _ in range(cfg.n_sequences):
        rng = SplitMix64(master.next_u64())
        next_float = rng.next_float
        is_attack = next_float() < cfg.anomaly_fraction
        length = cfg.length_min + rng.next_below(cfg.length_max - cfg.length_min + 1)
        order, initial, rows = sources[is_attack]
        seq = list(_draw(initial, next_float()))
        while len(seq) < length:
            ctx = tuple(seq[len(seq) - order:])
            table = rows.get(ctx)
            if table is None:
                raise ValueError(f"spec has no transition row for context {ctx}")
            seq.append(_draw(table, next_float()))
        corpus.append((seq, Label.ATTACK if is_attack else Label.NORMAL))
    return corpus


def exact_likelihood(spec: MarkovSpec, sequence: Iterable[int]) -> float:
    """Chain-rule probability of the sequence under the source.

    Initial prefix probability times per-step transition probabilities.
    A context or prefix absent from the source's tables contributes
    probability 0.
    """
    seq = list(sequence)
    if any(not 0 <= s < spec.alphabet_size for s in seq):
        raise ValueError("sequence has symbols outside the alphabet")
    if len(seq) < spec.order:
        raise ValueError(
            f"sequence length {len(seq)} shorter than order {spec.order}")
    prob = spec.initial.get(tuple(seq[:spec.order]), 0.0)
    for i in range(spec.order, len(seq)):
        if prob == 0.0:
            return 0.0
        row = spec.transitions.get(tuple(seq[i - spec.order:i]))
        prob *= row[seq[i]] if row is not None else 0.0
    return prob


def demo_spec_pair(alphabet_size: int = 8) -> tuple[MarkovSpec, MarkovSpec]:
    """A well-separated source pair for benchmarks and examples.

    Background walks the alphabet as a noisy forward cycle (93% step +1,
    5% step +2, the rest spread uniformly); the anomaly source emits
    symbols uniformly at random, which no model can compress. Both are
    order 1 with uniform initial symbols, over 4 to MAX_DEMO_ALPHABET
    symbols: the rows are dense, so memory grows with the alphabet squared.
    """
    m = alphabet_size
    if not 4 <= m <= MAX_DEMO_ALPHABET:
        raise ValueError(f"alphabet_size must be 4 to {MAX_DEMO_ALPHABET}, got {m}")
    rest = 0.02 / (m - 2)
    bg_rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    for i in range(m):
        row = [rest] * m
        row[(i + 1) % m] = 0.93
        row[(i + 2) % m] = 0.05
        bg_rows[(i,)] = tuple(row)
    uniform_initial = {(i,): 1.0 / m for i in range(m)}
    background = MarkovSpec(
        order=1, alphabet_size=m, transitions=bg_rows, initial=dict(uniform_initial))
    anomaly = MarkovSpec(
        order=1,
        alphabet_size=m,
        transitions={(i,): tuple([1.0 / m] * m) for i in range(m)},
        initial=dict(uniform_initial),
    )
    return background, anomaly


def symbol_token(sym: int) -> str:
    return f"s{sym}"


def corpus_to_sequences(
    corpus: Iterable[tuple[list[int], Label]],
    alphabet_size: int,
) -> tuple[list[Sequence], Vocabulary]:
    """Wrap raw labeled symbol lists as Sequence values.

    Tokens s0..s{m-1} are registered in symbol order, so token ids equal
    symbols, and a symbol outside 0..m-1 is a ValueError. Endpoint and
    window fields are placeholders (pair "synth"/"synth", window = index).
    """
    vocab = Vocabulary(map(symbol_token, range(alphabet_size)))
    sequences = []
    for i, (symbols, label) in enumerate(corpus):
        seq = Sequence("synth", "synth", float(i), tuple(symbols), label)
        if not 0 <= min(seq.token_ids) <= max(seq.token_ids) < alphabet_size:
            raise ValueError(f"sequence {i} has symbols outside the alphabet")
        sequences.append(seq)
    return sequences, vocab
