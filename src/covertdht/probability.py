"""Finite-alphabet probability primitives.

Pmfs, joint pmfs, KL and chi-squared divergences, and strong typicality of
types. All divergences are in nats.

The two type predicates, :func:`typical` and :func:`kl_rows`, are defined
here once and work on batches of types (the last axis indexes the
alphabet). They define every typicality and divergence-threshold decision
of the exact sums and the Monte Carlo engine. Each is an elementwise
per-letter kernel (:func:`typical_letters`, :func:`kl_terms`) reduced over
the letters: an AND, or :func:`letter_sum`, which adds the letters left to
right. The engines decide on integer counts: each kernel, applied once to
the frequencies c/n of the counts 0..n, gives a count table
(``typesum.kl_table``; ``simulation._mu_box`` for typicality) that
``typesum.table_sum`` reads at each type's counts and adds in
:func:`letter_sum`'s order, so a table decision meets every tie as the
predicate on counts / n does.
There is no sequence-level layer: every quantity the library computes
depends on a block only through its type.

The value types (`Alphabet`, `Pmf`, `JointPmf`, ``channel.Dmc``,
``simulation.SchemeConfig``, ``config.ExperimentConfig``) are plain classes
on :class:`Frozen` with read-only fields, so importing them generates no
code; results are ``typing.NamedTuple`` records, compared field by field.

Conventions: 0*log(0/q) = 0 by continuity. A positive p-mass on a q-zero is
+inf in the batched ``kl_rows``; the scalar ``kl_divergence`` raises
:class:`SupportViolation` instead, so its callers handle the infinite case
explicitly.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import AlphabetMismatch, DivisionBySupportZero, SupportViolation

LN2 = math.log(2.0)

#: Mass deviations up to this are renormalized; larger ones are rejected.
_MASS_SLACK = 1e-9


class Frozen:
    """Base of the value types: ``__init__`` sets the fields once, by `_set`;
    assigning or deleting an attribute then raises AttributeError. repr
    shows the fields named in ``_repr``, in order. Equality and hash are by
    identity unless a type defines its own."""

    _repr: tuple = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"


class Alphabet(Frozen):
    """Ordered finite alphabet with a bijective index <-> label mapping.

    Equal alphabets have equal symbols, in the same order; an alphabet is
    hashable."""

    _repr = ("symbols",)

    def __init__(self, symbols: tuple):
        symbols = tuple(symbols)
        if len(symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        self._set(symbols=symbols)

    def __eq__(self, other):
        return self.symbols == other.symbols if type(other) is Alphabet else NotImplemented

    def __hash__(self):
        return hash(self.symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def __len__(self) -> int:
        return len(self.symbols)


def _as_prob_vector(probs, what: str) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{what} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > _MASS_SLACK:
        raise ValueError(f"{what} mass {total} deviates from 1 by more than {_MASS_SLACK}")
    arr = arr / total
    arr.flags.writeable = False
    return arr


def cached_method(method):
    """A method of a frozen object whose result, for each tuple of
    arguments, is built on the first call and kept on the object."""
    @functools.wraps(method)
    def cached(self, *args):
        cache = self.__dict__.setdefault("_cached", {})
        key = (method.__name__, *args)
        if key not in cache:
            cache[key] = method(self, *args)
        return cache[key]
    return cached


class Pmf(Frozen):
    """Probability mass function over a finite alphabet.

    Construction normalizes inputs whose total mass is within 1e-9 of 1 and
    rejects anything further off. Equality and hash are by identity.
    """

    _repr = ("alphabet",)

    def __init__(self, alphabet: Alphabet, probs: np.ndarray):
        arr = _as_prob_vector(probs, "pmf")
        if arr.shape != (alphabet.size,):
            raise ValueError(
                f"pmf length {arr.shape} does not match alphabet size {alphabet.size}"
            )
        self._set(alphabet=alphabet, probs=arr)

    def __getitem__(self, symbol) -> float:
        return float(self.probs[self.alphabet.index(symbol)])


class JointPmf(Frozen):
    """Joint pmf over a product of two finite alphabets (rows x columns).
    Equality and hash are by identity."""

    _repr = ("row_alphabet", "col_alphabet")

    def __init__(self, row_alphabet: Alphabet, col_alphabet: Alphabet, probs: np.ndarray):
        arr = np.asarray(probs, dtype=float)
        if arr.shape != (row_alphabet.size, col_alphabet.size):
            raise ValueError("joint pmf shape does not match alphabets")
        flat = _as_prob_vector(arr.ravel(), "joint pmf")
        arr = flat.reshape(arr.shape)
        arr.flags.writeable = False
        self._set(row_alphabet=row_alphabet, col_alphabet=col_alphabet, probs=arr)

    @cached_method
    def row_marginal(self) -> Pmf:
        return Pmf(self.row_alphabet, self.probs.sum(axis=1))

    @cached_method
    def col_marginal(self) -> Pmf:
        return Pmf(self.col_alphabet, self.probs.sum(axis=0))

    @staticmethod
    def product(p_row: Pmf, p_col: Pmf) -> "JointPmf":
        return JointPmf(p_row.alphabet, p_col.alphabet, np.outer(p_row.probs, p_col.probs))


def _check_same_alphabet(p: Pmf, q: Pmf) -> None:
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch(f"{p.alphabet.symbols} vs {q.alphabet.symbols}")


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || q) = sum_a p(a) log(p(a)/q(a)), with 0 log(0/.) = 0.

    Raises SupportViolation when p puts mass where q does not (the +inf case).
    """
    _check_same_alphabet(p, q)
    return kl_divergence_vec(p.probs, q.probs)


def kl_divergence_vec(p: np.ndarray, q: np.ndarray) -> float:
    """Nats-valued KL divergence on raw probability vectors."""
    val = float(kl_rows(p, q))
    if val == math.inf:
        raise SupportViolation("p is not absolutely continuous w.r.t. q")
    return val


def letter_sum(terms: np.ndarray) -> np.ndarray:
    """((0.0 + a_0) + a_1) + ...: per-letter terms added letter by letter,
    left to right, over the last axis of `terms`.

    The one summation order of the per-type letter sums. numpy's
    ``sum(axis=-1)`` adds a last axis of up to seven letters in this order
    too; on eight or more it switches to pairwise partial sums.
    """
    if terms.ndim == 1:  # one type: Python floats add as doubles, faster
        return np.float64(functools.reduce(operator.add, terms.tolist(), 0.0))
    total = 0.0
    for z in range(terms.shape[-1]):
        total = total + terms[..., z]
    return total


def kl_terms(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """t log(t/q) elementwise, 0 where t = 0 (0 log 0 = 0): the per-letter
    terms of :func:`kl_rows`; +inf where t > 0 = q."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log(t / q)
    return np.where(t > 0.0, terms, 0.0)


def kl_rows(t, q: np.ndarray) -> np.ndarray:
    """D(t || q) in nats over the last axis of `t`; +inf off the support of q.

    The one definition of the divergence behind every threshold decision:
    the :func:`kl_terms` of each type summed by :func:`letter_sum`, clamped
    at 0. ``typesum.kl_table`` holds the same terms per letter and count.
    """
    return np.maximum(letter_sum(kl_terms(t, q)), 0.0)


def chi_squared(p: Pmf, q: Pmf) -> float:
    """Chi-squared distance sum_a (p(a)-q(a))^2 / q(a)."""
    _check_same_alphabet(p, q)
    diff = p.probs - q.probs
    bad = (q.probs == 0.0) & (diff != 0.0)
    if np.any(bad):
        raise DivisionBySupportZero("p differs from q on a q-zero symbol")
    mask = q.probs > 0.0
    return float(np.sum(diff[mask] ** 2 / q.probs[mask]))


def typical_letters(t: np.ndarray, ref: np.ndarray, mu: float) -> np.ndarray:
    """The per-letter conditions of :func:`typical`, elementwise: |t - ref|
    <= mu, and no mass where ref is zero."""
    ok = np.abs(t - ref) <= mu
    ok &= (ref > 0.0) | (t == 0.0)
    return ok


def typical(t, ref: np.ndarray, mu: float) -> np.ndarray:
    """Strong mu-typicality of types for `ref` over the last axis of `t`.

    Per-letter |t - ref| <= mu and no mass where ref is zero
    (:func:`typical_letters`), on every letter. The closed (<=) per-letter
    condition is used so boundary cases are deterministic.
    """
    return typical_letters(np.asarray(t), ref, mu).all(axis=-1)
