"""Validation tests for the pairing-word combinatorics.

Tests cover:
  1. Configuration enumeration counts and word validation.
  2. The reference 6-arc word: u-vectors, gap classes, free variables,
     isolated intervals.
  3. Exact span identities for the two gap families, exhaustively for
     small n, and the failure of the naive increasing-gap base.
  4. Multiplicity assignments from the endpoint expansion.
  5. Spanning-set construction under the multiplicity cap.
  6. Component factorization and relabeling classes.
  7. Reversal duality (reverse the word, swap the endpoint roles).
  8. Convergence-exponent thresholds for every variation mode.
  9. Properties of random words: relabeling equivariance, mirror duality,
     and the span identities at n = 5.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltlab.arcs import (
    ConvergenceReport,
    MAssignment,
    PairConfiguration,
    build_spanning_sets,
    classify_gaps,
    compute_u_vectors,
    connected_components,
    convergence_exponents,
    enumerate_configurations,
    enumerate_m_assignments,
    find_free_variables,
    find_isolated_intervals,
    gaps_following_s,
    gaps_preceding_r,
    relabeling_classes,
    verify_span,
)

REFERENCE_WORD = "r1,r2,s2,r3,r4,s1,s3,r5,s4,s5,r6,s6"


def _rank(rows) -> int:
    """Exact rational rank, independent of the library implementation."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _span_set(c: PairConfiguration, gaps) -> set:
    """Indices k with e_k in the rational span of the given gap vectors."""
    vecs = {v.gap_index: v.coefficients for v in compute_u_vectors(c)}
    rows = [vecs[j] for j in gaps]
    base_rank = _rank(rows)
    spanned = set()
    for k in range(1, c.n + 1):
        unit = tuple(1 if i == k - 1 else 0 for i in range(c.n))
        if _rank(rows + [unit]) == base_rank:
            spanned.add(k)
    return spanned


# ---------------------------------------------------------------------------
# Enumeration and validation
# ---------------------------------------------------------------------------

class TestConfigurations:
    """Raw word enumeration and the word well-formedness rules."""

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 90), (4, 2520),
                                         (5, 113400)])
    def test_counts(self, n: int, count: int) -> None:
        words = enumerate_configurations(n)
        assert len(words) == count, f"n={n}: got {len(words)}, want {count}"
        assert len({c.to_string() for c in words}) == count

    @pytest.mark.parametrize("n", [0, 6])
    def test_size_limits(self, n: int) -> None:
        with pytest.raises(ValueError):
            enumerate_configurations(n)

    def test_round_trip(self) -> None:
        c = PairConfiguration.from_string(REFERENCE_WORD)
        assert c.to_string() == REFERENCE_WORD
        assert c.n == 6
        assert c.arc(1) == (1, 6)
        assert c.position("s", 5) == 10

    @pytest.mark.parametrize("bad", [
        "s1,r1",                # s before its r
        "r1,s1,r2",             # odd length
        "r1,s2",                # mismatched labels
        "r1,s1,r1,s1",          # duplicate labels
        "r1,x2,s1,s2",          # unknown letter
        "r1,s,r2,s2",           # missing index
    ])
    def test_rejects_malformed(self, bad: str) -> None:
        with pytest.raises(ValueError):
            PairConfiguration.from_string(bad)


# ---------------------------------------------------------------------------
# Reference word
# ---------------------------------------------------------------------------

class TestReferenceWord:
    """Hand-computed structure of the reference 6-arc word."""

    WORD = PairConfiguration.from_string(REFERENCE_WORD)

    def test_u_vectors(self) -> None:
        expected = [
            (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0), (1, 0, 1, 1, 0, 0), (0, 0, 1, 1, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
        ]
        vectors = compute_u_vectors(self.WORD)
        assert [v.coefficients for v in vectors] == expected
        assert [v.gap_index for v in vectors] == list(range(1, 12))
        assert verify_span(vectors, 6)

    def test_gap_classes(self) -> None:
        tags = classify_gaps(self.WORD)
        increasing = {j for j, tag in enumerate(tags, 1) if tag == "increasing"}
        assert increasing == {1, 2, 4, 5, 8, 11}, increasing

    def test_free_variables(self) -> None:
        s_free, r_free = find_free_variables(self.WORD)
        assert s_free == {2, 6}, s_free
        assert r_free == {2, 5, 6}, r_free

    def test_isolated_intervals(self) -> None:
        isolated = find_isolated_intervals(self.WORD)
        assert isolated == {2, 6}
        s_free, r_free = find_free_variables(self.WORD)
        assert isolated <= (s_free & r_free)


# ---------------------------------------------------------------------------
# Span identities
# ---------------------------------------------------------------------------

class TestSpanIdentities:
    """The two gap families span exactly the non-free variables."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n: int) -> None:
        for c in enumerate_configurations(n):
            s_free, r_free = find_free_variables(c)
            not_r_free = set(range(1, n + 1)) - r_free
            not_s_free = set(range(1, n + 1)) - s_free
            assert _span_set(c, gaps_preceding_r(c)) == not_r_free, c.to_string()
            assert _span_set(c, gaps_following_s(c)) == not_s_free, c.to_string()

    def test_increasing_base_does_not_work(self) -> None:
        # using the increasing gaps (left letter r) in place of the gaps
        # preceding an r breaks on every 2-arc word
        failures = 0
        for c in enumerate_configurations(2):
            tags = classify_gaps(c)
            increasing = [j for j, tag in enumerate(tags, 1)
                          if tag == "increasing"]
            _, r_free = find_free_variables(c)
            not_r_free = set(range(1, 3)) - r_free
            if _span_set(c, increasing) != not_r_free:
                failures += 1
        print(f"  naive increasing base fails on {failures}/6 words")
        assert failures == 6

    def test_gap_families_read_off_word(self) -> None:
        c = PairConfiguration.from_string("r1,r2,s1,s2")
        assert gaps_preceding_r(c) == (1,)
        assert gaps_following_s(c) == (3,)


# ---------------------------------------------------------------------------
# Multiplicity assignments
# ---------------------------------------------------------------------------

class TestMAssignments:
    """Per-gap multiplicities generated by the endpoint half-power split."""

    def test_single_arc(self) -> None:
        ms = enumerate_m_assignments(PairConfiguration.from_string("r1,s1"))
        assert [a.m for a in ms] == [(2,)]

    def test_crossing_pair(self) -> None:
        ms = enumerate_m_assignments(PairConfiguration.from_string("r1,r2,s1,s2"))
        assert {a.m for a in ms} == {(2, 1, 1), (2, 0, 2), (1, 2, 1), (1, 1, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariants(self, n: int) -> None:
        for c in enumerate_configurations(n):
            for a in enumerate_m_assignments(c):
                assert len(a.m) == 2 * n - 1
                assert sum(a.m) == 2 * n, "every endpoint feeds one inner gap"
                assert all(0 <= mj <= 2 for mj in a.m)
                assert not any(a.m[j] == 2 and a.m[j + 1] == 2
                               for j in range(2 * n - 2))

    @pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 199)])
    def test_matches_product_dedupe_reference(self, n: int, stride: int) -> None:
        for c in enumerate_configurations(n)[::stride]:
            got = [a.m for a in enumerate_m_assignments(c)]
            assert got == _reference_m_assignments(c), c.to_string()
            assert len(got) == 4 ** (n - 1)
            assert not any(m[j] == 2 and m[j + 1] == 2
                           for m in got for j in range(2 * n - 2))


def _reference_m_assignments(c: PairConfiguration) -> list:
    """Every endpoint-to-gap choice, boundary gaps dropped, deduplicated in
    first-seen order: the literal reading of the endpoint expansion."""
    n = c.n
    seen, out = set(), []
    for choice in itertools.product((0, 1), repeat=2 * n):
        m = [0] * (2 * n + 1)
        for pos, side in enumerate(choice, start=1):
            m[pos - 1 + side] += 1
        key = tuple(m[1 : 2 * n])
        if m[0] == 0 and m[2 * n] == 0 and key not in seen:
            seen.add(key)
            out.append(key)
    return out


# ---------------------------------------------------------------------------
# Spanning sets
# ---------------------------------------------------------------------------

class TestSpanningSets:
    """Augmented gap bases subject to the multiplicity cap m_j <= 1."""

    def test_crossing_pair_witness(self) -> None:
        c = PairConfiguration.from_string("r1,r2,s1,s2")
        result = build_spanning_sets(c, MAssignment(m=(1, 2, 1)))
        assert result.success
        assert result.a_gaps == (1, 3) and result.b_gaps == (1, 3)

    def test_isolated_interval_rejected(self) -> None:
        c = PairConfiguration.from_string("r1,s1,r2,s2")
        with pytest.raises(ValueError):
            build_spanning_sets(c, MAssignment(m=(2, 0, 2)))

    def test_wrong_multiplicity_length(self) -> None:
        c = PairConfiguration.from_string("r1,r2,s1,s2")
        with pytest.raises(ValueError):
            build_spanning_sets(c, MAssignment(m=(2,)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_success(self, n: int) -> None:
        checked = 0
        for c in enumerate_configurations(n):
            if find_isolated_intervals(c):
                continue
            for a in enumerate_m_assignments(c):
                result = build_spanning_sets(c, a)
                assert result.success, (c.to_string(), a.m, result.reason)
                for gaps, target in ((result.a_gaps, "r"), (result.b_gaps, "s")):
                    spanned = _span_set(c, gaps)
                    assert spanned == set(range(1, n + 1)), (c.to_string(), a.m)
                checked += 1
        print(f"  n={n}: {checked} (word, multiplicity) pairs spanned")
        assert checked > 0


# ---------------------------------------------------------------------------
# Components and relabeling
# ---------------------------------------------------------------------------

class TestComponents:
    """Factorization at the zero-crossings of the open-arc count."""

    def test_disjoint_pair(self) -> None:
        c = PairConfiguration.from_string("r1,s1,r2,s2")
        parts = connected_components(c)
        assert [p.to_string() for p in parts] == ["r1,s1", "r1,s1"]

    def test_relabels_in_order(self) -> None:
        c = PairConfiguration.from_string("r2,s2,r1,s1")
        assert [p.to_string() for p in connected_components(c)] == \
            ["r1,s1", "r1,s1"]

    @pytest.mark.parametrize("word", ["r1,r2,s2,s1", "r1,r2,s1,s2"])
    def test_linked_words_are_single_blocks(self, word: str) -> None:
        c = PairConfiguration.from_string(word)
        assert [p.to_string() for p in connected_components(c)] == [word]

    def test_reference_word_splits_once(self) -> None:
        parts = connected_components(PairConfiguration.from_string(REFERENCE_WORD))
        assert [p.to_string() for p in parts] == \
            ["r1,r2,s2,r3,r4,s1,s3,r5,s4,s5", "r1,s1"]


class TestRelabelingClasses:
    """Grouping raw words by the order-of-first-appearance relabeling."""

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 3), (3, 15), (4, 105)])
    def test_double_factorial_count(self, n: int, classes: int) -> None:
        grouped = relabeling_classes(enumerate_configurations(n))
        assert len(grouped) == classes, f"n={n}: {len(grouped)} classes"
        sizes = {len(v) for v in grouped.values()}
        import math
        assert sizes == {math.factorial(n)}, "each class has n! relabelings"

    def test_canonical_keys_are_members(self) -> None:
        grouped = relabeling_classes(enumerate_configurations(2))
        for key, members in grouped.items():
            assert key in {m.to_string() for m in members}


# ---------------------------------------------------------------------------
# Reversal duality
# ---------------------------------------------------------------------------

class TestReversalDuality:
    """Reversing the word and swapping endpoint roles exchanges the clauses."""

    @staticmethod
    def _dual(c: PairConfiguration) -> PairConfiguration:
        flipped = tuple(("r" if kind == "s" else "s", idx)
                        for kind, idx in reversed(c.word))
        return PairConfiguration(flipped)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_free_sets_swap(self, n: int) -> None:
        for c in enumerate_configurations(n):
            d = self._dual(c)
            assert find_free_variables(d) == find_free_variables(c)[::-1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u_vectors_reflect(self, n: int) -> None:
        for c in enumerate_configurations(n):
            d = self._dual(c)
            original = {v.gap_index: v.coefficients for v in compute_u_vectors(c)}
            mirrored = {v.gap_index: v.coefficients for v in compute_u_vectors(d)}
            for j in range(1, 2 * n):
                assert mirrored[j] == original[2 * n - j], (c.to_string(), j)

    def test_gap_families_reflect(self) -> None:
        c = PairConfiguration.from_string(REFERENCE_WORD)
        d = self._dual(c)
        reflected = tuple(sorted(12 - j for j in gaps_following_s(c)))
        assert gaps_preceding_r(d) == reflected


# ---------------------------------------------------------------------------
# Random words
# ---------------------------------------------------------------------------

@st.composite
def _words(draw, n=st.integers(1, 5)):
    """A uniform interleaving: the first occurrence of a label is its r."""
    size = draw(n)
    order = draw(st.permutations([k for k in range(1, size + 1) for _ in (0, 1)]))
    seen = set()
    word = []
    for k in order:
        word.append(("s" if k in seen else "r", k))
        seen.add(k)
    return PairConfiguration(tuple(word))


def _swapped_roles(c: PairConfiguration) -> PairConfiguration:
    """The mirror word: reversed, with every r and s exchanged."""
    return PairConfiguration(tuple(("r" if kind == "s" else "s", idx)
                                   for kind, idx in reversed(c.word)))


class TestRandomWords:
    """Invariants that hold on every word, checked on random ones."""

    @given(c=_words(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabeling_is_equivariant(self, c, data) -> None:
        n = c.n
        image = data.draw(st.permutations(range(1, n + 1)))
        pi = dict(zip(range(1, n + 1), image))
        d = PairConfiguration(tuple((kind, pi[idx]) for kind, idx in c.word))
        for u, v in zip(compute_u_vectors(c), compute_u_vectors(d)):
            assert v.gap_index == u.gap_index
            for k in range(1, n + 1):
                assert v.coefficients[pi[k] - 1] == u.coefficients[k - 1]
        assert classify_gaps(d) == classify_gaps(c)
        s_free, r_free = find_free_variables(c)
        assert find_free_variables(d) == ({pi[k] for k in s_free},
                                          {pi[k] for k in r_free})
        assert find_isolated_intervals(d) == {pi[k] for k in find_isolated_intervals(c)}
        assert len(relabeling_classes([c, d])) == 1

    @given(c=_words())
    @settings(max_examples=100, deadline=None)
    def test_mirror_swaps_r_and_s(self, c) -> None:
        n = c.n
        d = _swapped_roles(c)
        assert _swapped_roles(d) == c
        assert find_free_variables(d) == find_free_variables(c)[::-1]
        assert find_isolated_intervals(d) == find_isolated_intervals(c)
        assert gaps_preceding_r(d) == tuple(sorted(2 * n - j for j in gaps_following_s(c)))
        assert gaps_following_s(d) == tuple(sorted(2 * n - j for j in gaps_preceding_r(c)))
        original = compute_u_vectors(c)
        for v in compute_u_vectors(d):
            assert v.coefficients == original[2 * n - v.gap_index - 1].coefficients

    @given(c=_words(n=st.just(5)))
    @settings(max_examples=150, deadline=None)
    def test_span_identities_at_five_arcs(self, c) -> None:
        s_free, r_free = find_free_variables(c)
        everything = set(range(1, 6))
        assert _span_set(c, gaps_preceding_r(c)) == everything - r_free
        assert _span_set(c, gaps_following_s(c)) == everything - s_free


# ---------------------------------------------------------------------------
# Convergence exponents
# ---------------------------------------------------------------------------

class TestConvergence:
    """Admissibility thresholds for each variation mode."""

    def test_main_space_mode(self) -> None:
        report = convergence_exponents(0.3, lam=0.2, mode="y")
        assert isinstance(report, ConvergenceReport)
        assert report.d_value == pytest.approx(1.0 / 0.3 - 1.4)
        assert report.converges and not report.restricted

    @pytest.mark.parametrize("h", [0.4, 0.45])
    def test_main_space_threshold(self, h: float) -> None:
        lam_star = (1.0 / h - 2.0) / 2.0
        below = convergence_exponents(h, lam=lam_star - 1e-6, mode="y")
        above = convergence_exponents(h, lam=lam_star + 1e-6, mode="y")
        assert below.converges and not above.converges
        at = convergence_exponents(h, lam=lam_star, mode="y")
        assert not at.converges, "strict inequality at the space threshold"

    def test_main_time_threshold(self) -> None:
        h = 0.3
        gamma_star = 2.0 * h
        assert convergence_exponents(h, gamma=gamma_star + 1e-6, mode="t").converges
        assert not convergence_exponents(h, gamma=gamma_star - 1e-6,
                                         mode="t").converges

    def test_restricted_space_mode(self) -> None:
        report = convergence_exponents(0.5, lam=0.0, mode="y", restricted=True)
        assert report.d_value == pytest.approx(1.5) and report.converges
        report = convergence_exponents(0.6, lam=0.2, mode="y", restricted=True)
        assert report.d_value == pytest.approx(2.0 * (1.0 / 0.6 - 1.2))
        assert not report.converges

    @pytest.mark.parametrize("h", [0.5, 0.6])
    def test_restricted_space_threshold(self, h: float) -> None:
        lam_star = 1.0 / h - 1.5
        assert convergence_exponents(h, lam=lam_star - 1e-6, mode="eps",
                                     restricted=True).converges
        assert not convergence_exponents(h, lam=lam_star + 1e-6, mode="eps",
                                         restricted=True).converges

    @pytest.mark.parametrize("h", [0.5, 0.4])
    def test_restricted_time_threshold_is_inclusive(self, h: float) -> None:
        gamma_star = 1.5 * h  # beta = 1 - 3H/2
        at = convergence_exponents(h, gamma=gamma_star, mode="t", restricted=True)
        assert at.d_value == pytest.approx(1.0)
        assert at.converges, "restricted time mode converges at its boundary"
        assert not convergence_exponents(h, gamma=gamma_star - 1e-6, mode="t",
                                         restricted=True).converges

    def test_gap_exponents(self) -> None:
        m = MAssignment(m=(2, 1, 1))
        report = convergence_exponents(0.5, lam=0.2, mode="y", m=m)
        assert report.gap_exponents == pytest.approx((0.6, 1.3, 1.3))
        report = convergence_exponents(0.5, lam=0.2, mode="y", m=m,
                                       lambda_weight=1.0)
        assert report.gap_exponents == pytest.approx((0.8, 1.4, 1.4))
        report = convergence_exponents(0.5, gamma=0.9, mode="t", m=m)
        assert report.gap_exponents == pytest.approx((0.8, 1.3, 1.3))

    def test_missing_parameters(self) -> None:
        with pytest.raises(ValueError):
            convergence_exponents(0.5, mode="y")
        with pytest.raises(ValueError):
            convergence_exponents(0.5, mode="t")
        with pytest.raises(ValueError):
            convergence_exponents(0.5, lam=0.1, mode="z")
