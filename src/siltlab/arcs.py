"""Arc-diagram combinatorics for the moment-bound machinery.

A pair configuration is an interleaving word of endpoints r_1..r_n,
s_1..s_n with each r_k before its s_k.  The gap between consecutive
endpoints j and j+1 carries the integer vector u_j, the sum of the p_k
whose arcs cover the gap.  Gap classification, free variables, isolated
intervals, spanning-set construction, and the convergence-exponent
thresholds all operate on this exact integer data.

Note on conventions: some published example classifications for the
twelve-letter reference word are inconsistent with the definitions they
accompany (the functions here follow the definitions).
The span identities hold with a mirrored base for the r-side: the gaps
whose RIGHT endpoint is an r span the non-r-free variables, while the gaps
whose LEFT endpoint is an s span the non-s-free ones; the test suite
verifies both exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "PairConfiguration",
    "UVector",
    "MAssignment",
    "SpanningSets",
    "ConvergenceReport",
    "enumerate_configurations",
    "compute_u_vectors",
    "classify_gaps",
    "find_free_variables",
    "find_isolated_intervals",
    "gaps_preceding_r",
    "gaps_following_s",
    "verify_span",
    "enumerate_m_assignments",
    "build_spanning_sets",
    "connected_components",
    "relabeling_classes",
    "convergence_exponents",
]

_MAX_N = 5


@dataclass(frozen=True)
class PairConfiguration:
    """An interleaving word of {r_1..r_n, s_1..s_n}, each r_k before s_k.

    word entries are (kind, index) with kind "r" or "s" and 1-based index.
    """

    word: tuple

    def __post_init__(self):
        w = tuple((str(kind), int(idx)) for kind, idx in self.word)
        if len(w) == 0 or len(w) % 2 != 0:
            raise ValueError("word length must be a positive even number")
        n = len(w) // 2
        expected = {("r", k) for k in range(1, n + 1)} | {("s", k) for k in range(1, n + 1)}
        if set(w) != expected or len(set(w)) != len(w):
            raise ValueError("word must use each of r_1..r_n, s_1..s_n exactly once")
        for k in range(1, n + 1):
            if w.index(("r", k)) > w.index(("s", k)):
                raise ValueError(f"r_{k} must precede s_{k}")
        object.__setattr__(self, "word", w)

    @property
    def n(self) -> int:
        return len(self.word) // 2

    def position(self, kind: str, index: int) -> int:
        """1-based position of an endpoint in the word."""
        return self.word.index((kind, index)) + 1

    def arc(self, k: int):
        """(position of r_k, position of s_k), 1-based."""
        return self.position("r", k), self.position("s", k)

    @staticmethod
    def from_string(text: str) -> "PairConfiguration":
        """Parse a comma-separated word such as "r1,r2,s2,s1"."""
        letters = []
        for token in text.split(","):
            token = token.strip()
            if len(token) < 2 or token[0] not in "rs" or not token[1:].isdigit():
                raise ValueError(f"bad endpoint token {token!r}")
            letters.append((token[0], int(token[1:])))
        return PairConfiguration(tuple(letters))

    def to_string(self) -> str:
        return ",".join(f"{kind}{idx}" for kind, idx in self.word)


@dataclass(frozen=True)
class UVector:
    """Integer coefficient vector of one gap: coefficients[k-1] multiplies p_k."""

    coefficients: tuple
    gap_index: int


@dataclass(frozen=True)
class MAssignment:
    """Per-gap multiplicities in {0, 1, 2} from endpoint-to-gap choices."""

    m: tuple


@dataclass(frozen=True)
class SpanningSets:
    """Witness gap sets for the two span clauses, or a failure report."""

    a_gaps: tuple
    b_gaps: tuple
    success: bool
    reason: str | None = None


def enumerate_configurations(n: int):
    """All (2n)!/2^n raw words, lexicographic in (r1, s1, r2, s2, ...).

    Raw means arc labels are not quotiented by relabeling symmetry; use
    relabeling_classes for the grouped view.  Refuses n > 5.
    """
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must be in 1..{_MAX_N} (combinatorial blow-up)")
    labels = []
    for k in range(1, n + 1):
        labels.append(("r", k))
        labels.append(("s", k))
    out = []
    word = []
    used = set()

    def backtrack():
        if len(word) == 2 * n:
            out.append(PairConfiguration(tuple(word)))
            return
        for lab in labels:
            if lab in used:
                continue
            if lab[0] == "s" and ("r", lab[1]) not in used:
                continue
            used.add(lab)
            word.append(lab)
            backtrack()
            word.pop()
            used.remove(lab)

    backtrack()
    return out


def compute_u_vectors(c: PairConfiguration):
    """u_j for gaps j = 1..2n-1: u_j = sum of p_k with pos(r_k) <= j < pos(s_k)."""
    n = c.n
    arcs = [c.arc(k) for k in range(1, n + 1)]
    vectors = []
    for j in range(1, 2 * n):
        coeff = tuple(1 if a <= j < b else 0 for a, b in arcs)
        vectors.append(UVector(coefficients=coeff, gap_index=j))
    return vectors


def classify_gaps(c: PairConfiguration):
    """Tag each gap increasing or decreasing by its telescoping step.

    u_j - u_{j-1} = +p_k exactly when the j-th letter is r_k (increasing)
    and -p_k when it is s_k (decreasing); so the tag is read off the
    letter on the left of the gap.
    """
    return tuple("increasing" if kind == "r" else "decreasing"
                 for kind, _ in c.word[:-1])


def find_free_variables(c: PairConfiguration):
    """(s_free, r_free): p_k is s-free iff no s_j lies strictly inside
    (r_k, s_k) in the word, r-free iff no r_j does."""
    s_free, r_free = set(), set()
    for k in range(1, c.n + 1):
        a, b = c.arc(k)
        interior = c.word[a : b - 1]
        if not any(kind == "s" for kind, _ in interior):
            s_free.add(k)
        if not any(kind == "r" for kind, _ in interior):
            r_free.add(k)
    return s_free, r_free


def find_isolated_intervals(c: PairConfiguration):
    """Arcs whose endpoints are adjacent in the word (no endpoint inside)."""
    return {k for k in range(1, c.n + 1) if c.arc(k)[1] - c.arc(k)[0] == 1}


def gaps_preceding_r(c: PairConfiguration):
    """Gaps whose RIGHT letter is an r: {j : w_{j+1} = r_k}.

    These span exactly the non-r-free variables (the mirror of the
    decreasing-gap clause; the left-letter increasing set does not have
    this property, see the crossing pair r1 r2 s1 s2).
    """
    return tuple(j for j in range(1, 2 * c.n) if c.word[j][0] == "r")


def gaps_following_s(c: PairConfiguration):
    """Gaps whose LEFT letter is an s: {j : w_j = s_k} (the decreasing gaps)."""
    return tuple(j for j in range(1, 2 * c.n) if c.word[j - 1][0] == "s")


def _integer_rank(rows) -> int:
    """Exact rank of integer rows by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f, g = pr[col], m[i][col]
                m[i] = [f * a - g * b for a, b in zip(m[i], pr)]
        rank += 1
        if rank == len(m):
            break
    return rank


def verify_span(vectors, n: int) -> bool:
    """True iff the u-vectors span all of {p_1..p_n} over the rationals."""
    return _integer_rank([v.coefficients for v in vectors]) == n


def enumerate_m_assignments(c: PairConfiguration):
    """All per-gap multiplicity vectors from the endpoint expansion.

    Each endpoint sends one half-power to one of its two flanking gaps;
    choices touching the boundary gaps 0 or 2n annihilate the whole term,
    so endpoints 1 and 2n feed gaps 1 and 2n - 1.  The other 2n - 2 choices
    give 4^(n-1) distinct vectors (m_j fixes the choice at endpoint j + 1),
    none with m_j = m_{j+1} = 2 (an endpoint cannot feed both of its gaps).
    """
    out = []
    for inner in itertools.product((0, 1), repeat=2 * c.n - 2):
        choice = (1, *inner, 0)  # 1: endpoint p feeds gap p, 0: gap p - 1
        m = tuple(a + 1 - b for a, b in zip(choice, choice[1:]))
        out.append(MAssignment(m=m))
    return out


def build_spanning_sets(c: PairConfiguration, m: MAssignment) -> SpanningSets:
    """Construct the two spanning gap sets subject to the multiplicity cap.

    Base A is the gaps preceding an r (these span the non-r-free p_k);
    one gap preceding an s that covers p_k is added per r-free p_k.  Base
    B mirrors with the roles of r and s exchanged.  Added gaps must have
    m_j <= 1.  Requires a configuration with no isolated intervals;
    returns a failure report when no admissible augmentation spans.
    """
    if find_isolated_intervals(c):
        raise ValueError("spanning-set construction assumes no isolated intervals")
    n = c.n
    if len(m.m) != 2 * n - 1:
        raise ValueError("multiplicity vector does not match the word length")
    vectors = {v.gap_index: v for v in compute_u_vectors(c)}
    s_free, r_free = find_free_variables(c)

    def covering(k):
        a, b = c.arc(k)
        return range(a, b)

    def search(base_gaps, free_vars, candidate_ok, clause):
        base = sorted(base_gaps)
        pools = []
        for k in sorted(free_vars):
            pool = [j for j in covering(k) if candidate_ok(j) and m.m[j - 1] <= 1]
            if not pool:
                return None, (f"clause {clause}: no admissible gap for p_{k} "
                              f"under the multiplicity cap")
            pools.append(pool)
        for combo in itertools.product(*pools):
            gaps = sorted(set(base) | set(combo))
            if _integer_rank([vectors[j].coefficients for j in gaps]) == n:
                return tuple(gaps), None
        return None, f"clause {clause}: no augmentation choice spans"

    a_gaps, reason = search(gaps_preceding_r(c), r_free,
                            lambda j: c.word[j][0] == "s", "A")
    if a_gaps is None:
        return SpanningSets((), (), False, reason)
    b_gaps, reason = search(gaps_following_s(c), s_free,
                            lambda j: c.word[j - 1][0] == "r", "B")
    if b_gaps is None:
        return SpanningSets((), (), False, reason)
    return SpanningSets(a_gaps, b_gaps, True, None)


def connected_components(c: PairConfiguration):
    """Split the word at the points where no arc is open.

    Each block is returned as its own configuration with arcs relabeled
    in order of first appearance; the moment integral factorizes over
    these blocks.
    """
    blocks = []
    current = []
    open_arcs = 0
    for letter in c.word:
        current.append(letter)
        open_arcs += 1 if letter[0] == "r" else -1
        if open_arcs == 0:
            blocks.append(current)
            current = []
    return [_relabeled(block) for block in blocks]


def _relabeled(word) -> PairConfiguration:
    """The word with arcs renumbered 1, 2, ... in order of first appearance."""
    relabel = {}
    for _, idx in word:
        relabel.setdefault(idx, len(relabel) + 1)
    return PairConfiguration(tuple((kind, relabel[idx]) for kind, idx in word))


def relabeling_classes(configs):
    """Group configurations by the canonical relabeling of arc indices.

    The canonical form renumbers arcs in order of first (r) appearance;
    returns a dict canonical word string -> list of configurations.
    """
    classes = {}
    for c in configs:
        classes.setdefault(_relabeled(c.word).to_string(), []).append(c)
    return classes


@dataclass(frozen=True)
class ConvergenceReport:
    """Evaluated exponent condition for one variation mode."""

    mode: str
    restricted: bool
    d_value: float
    converges: bool
    gap_exponents: tuple | None = None


def convergence_exponents(hurst: float, lam: float | None = None,
                          gamma: float | None = None,
                          m: MAssignment | None = None,
                          mode: str = "y", restricted: bool = False,
                          lambda_weight: float = 2.0) -> ConvergenceReport:
    """Evaluate the admissibility condition for a Holder order.

    Unrestricted (global-domain) modes: y/eps need lam and converge when
    1/H - (1 + 2 lam) > 1; t needs gamma = 1 - beta and converges when
    gamma/H - 1 > 1 (gamma > 2H).  Restricted ("fixed region") modes:
    y/eps converge when d = min(1/H - (1+lam)/2, 2(1/H - (1+lam))) > 1
    (equivalently lam < 1/H - 3/2); t converges when
    min(gamma/H - 1/2, 2(gamma/H - 1)) >= 1 (beta <= 1 - 3H/2).

    lambda_weight parameterizes the half-power split of |p_k|^(1 + w lam)
    in the per-gap exponents (w = 2 matches the y/eps expansion, w = 1
    the t expansion); it only affects gap_exponents, which are reported
    when an explicit multiplicity vector is supplied.
    """
    from .fbm import check_hurst

    h = check_hurst(hurst)
    if mode in ("y", "eps"):
        if lam is None:
            raise ValueError("modes 'y' and 'eps' need lam")
        if restricted:
            d = min(1.0 / h - (1.0 + lam) / 2.0, 2.0 * (1.0 / h - (1.0 + lam)))
            converges = d > 1.0
        else:
            d = 1.0 / h - (1.0 + 2.0 * lam)
            converges = d > 1.0
        per_endpoint = (1.0 + lambda_weight * lam) / 2.0
        base = 1.0 / h
    elif mode == "t":
        if gamma is None:
            raise ValueError("mode 't' needs gamma = 1 - beta")
        if restricted:
            d = min(gamma / h - 0.5, 2.0 * (gamma / h - 1.0))
            converges = d >= 1.0
        else:
            d = gamma / h - 1.0
            converges = d > 1.0
        per_endpoint = 0.5
        base = gamma / h
    else:
        raise ValueError(f"unknown mode {mode!r}")

    gap_exponents = None
    if m is not None:
        gap_exponents = tuple(base - mj * per_endpoint for mj in m.m)
    return ConvergenceReport(mode=mode, restricted=restricted, d_value=d,
                             converges=converges, gap_exponents=gap_exponents)
