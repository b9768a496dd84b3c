"""Tests for the de Bruijn graph and unitig extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import packed as packedmod
from repro.assembly.dbg import KmerTable, build_kmer_table, extract_unitigs
from repro.assembly.kmers import (
    canonical_kmers,
    canonical_kmers_varlen,
    kmer_counts,
)
from repro.assembly.reference_impl import (
    legacy_build_kmer_table,
    legacy_extract_unitigs,
)
from repro.seq.alphabet import encode, reverse_complement


def table_from(seq: str, k: int) -> KmerTable:
    return build_kmer_table(k, kmer_counts(canonical_kmers(encode(seq), k)))


class TestKmerTable:
    def test_membership_is_strand_blind(self):
        t = table_from("ACGTTTAA", 4)
        assert bytes(encode("ACGT")) in t
        # reverse complement of any stored k-mer is also "in" the table
        assert bytes(encode(reverse_complement("ACGT"))) in t

    def test_coverage(self):
        t = table_from("AAAAA", 3)  # AAA x3
        assert t.coverage(bytes(encode("AAA"))) == 3
        assert t.coverage(bytes(encode("TTT"))) == 3  # canonical form
        assert t.coverage(bytes(encode("CCC"))) == 0

    def test_drop_below(self):
        t = table_from("AAAAACGT", 3)
        removed = t.drop_below(2)
        assert removed > 0
        assert t.coverage(bytes(encode("AAA"))) == 3

    def test_successors_simple_path(self):
        t = table_from("ACGTA", 3)
        succ = t.successors(bytes(encode("ACG")))
        assert [bytes(s) for s in succ] == [bytes(encode("CGT"))]

    def test_predecessors_simple_path(self):
        t = table_from("ACGTA", 3)
        pred = t.predecessors(bytes(encode("CGT")))
        assert [bytes(p) for p in pred] == [bytes(encode("ACG"))]

    def test_branching_successors(self):
        # Two sequences sharing the prefix CGCTCG diverge after GCTCG.
        t = build_kmer_table(
            5,
            kmer_counts(
                np.concatenate(
                    [
                        canonical_kmers(encode("CGCTCGACTGCT"), 5),
                        canonical_kmers(encode("CGCTCGTCGCGC"), 5),
                    ]
                )
            ),
        )
        succ = t.successors(bytes(encode("GCTCG")))
        assert len(succ) == 2

    def test_memory_estimate_scales(self):
        from repro.assembly.dbg import KMER_RECORD_BYTES

        t1 = table_from("ACGTACGTAA", 5)
        assert t1.memory_bytes() == len(t1) * KMER_RECORD_BYTES


class TestUnitigExtraction:
    def test_single_path_reconstructed(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, steps = extract_unitigs(t)
        assert len(unitigs) == 1
        assert unitigs[0].seq in (seq, reverse_complement(seq))
        assert steps == len(seq) - 5 + 1  # 26 k-mers

    def test_no_duplicate_unitigs(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t)
        assert len(unitigs) == 1

    def test_branch_splits_unitigs(self):
        # Two sequences sharing a k-mer in the middle create a branch.
        s1 = "AACCGGTTACAGACGATA"
        s2 = "TTGGACCATACAGTTCGC"  # shares "ACAG" region differently
        rows = np.concatenate(
            [canonical_kmers(encode(s1), 5), canonical_kmers(encode(s2), 5)]
        )
        t = build_kmer_table(5, kmer_counts(rows))
        unitigs, _ = extract_unitigs(t)
        joined = {u.seq for u in unitigs}
        # every unitig must be a substring of one input (either strand)
        for u in joined:
            assert any(
                u in s or reverse_complement(u) in s for s in (s1, s2)
            ), u

    def test_coverage_recorded(self):
        t = table_from("ACGTACG", 4)
        unitigs, _ = extract_unitigs(t)
        assert all(u.coverage >= 1 for u in unitigs)

    def test_visited_shared_prevents_duplicates(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        visited: set[bytes] = set()
        u1, _ = extract_unitigs(t, visited=visited)
        u2, _ = extract_unitigs(t, visited=visited)
        assert len(u1) == 1
        assert u2 == []

    def test_seed_restriction(self):
        seq = "CTACTGGGGCACATCGTTCCTGTTTAGAGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t, seeds=iter([]))
        assert unitigs == []

    def test_circular_sequence_terminates(self):
        # A circular k-mer set (every node unique in/out) must not loop.
        seq = "ACGTACGTACGTACGTACGT"
        t = table_from(seq, 5)
        unitigs, _ = extract_unitigs(t)
        assert unitigs  # terminated and produced something

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=12, max_size=80))
    def test_unitig_kmers_subset_of_input(self, seq):
        """Every unitig's k-mer set is a subset of the input k-mer set,
        and all input k-mers are covered by some unitig."""
        k = 7
        t = table_from(seq, k)
        input_kmers = set(t.counts.keys())
        unitigs, _ = extract_unitigs(t)
        out_kmers = set()
        for u in unitigs:
            rows = canonical_kmers(u.codes, k)
            out_kmers.update(bytes(r) for r in rows)
        assert out_kmers == input_kmers

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=12, max_size=80))
    def test_unitigs_are_substrings(self, seq):
        k = 7
        t = table_from(seq, k)
        unitigs, _ = extract_unitigs(t)
        for u in unitigs:
            assert u.seq in seq or reverse_complement(u.seq) in seq


def _visited_kmers(visited: set, k: int) -> set[bytes]:
    """Packed ``visited`` key scalars as canonical code-bytes k-mers."""
    dtype = np.uint64 if packedmod.words_for(k) == 1 else "S16"
    rows = packedmod.keys_to_packed(np.array(list(visited), dtype=dtype), k)
    return set(packedmod.unpack_to_bytes(rows, k))


@st.composite
def _read_sets(draw):
    """A k (odd or even, one- or two-word) and a read set mixing random
    sequence, hairpins, cycles and homopolymer runs."""
    k = draw(st.sampled_from((3, 4, 5, 6, 8, 11, 16, 31, 32, 33, 34, 63)))
    dna = st.text(alphabet="ACGT", max_size=k + 40)
    reads = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("random", "hairpin", "cycle", "homo")))
        seq = draw(dna)
        if kind == "hairpin":
            seq += reverse_complement(seq)
        elif kind == "cycle":
            seq = (seq + "ACGT" * k)[: max(len(seq), k)]
            seq += seq[: k - 1]
        elif kind == "homo":
            run = draw(st.sampled_from("ACGT")) * draw(st.integers(k, k + 20))
            seq = seq[: len(seq) // 2] + run + seq[len(seq) // 2 :]
        reads += [seq] * draw(st.integers(1, 3))
    return k, reads


class TestLegacyDifferential:
    """Property-based differential test against the frozen sequential
    walker: unitigs, steps and the shared ``visited`` set must agree."""

    @settings(max_examples=80, deadline=None)
    @given(
        _read_sets(),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_sharded_walks_match_legacy(self, case, n_ranks, seed, as_rows):
        k, reads = case
        counts = kmer_counts(canonical_kmers_varlen(reads, k))
        t_new = build_kmer_table(k, counts)
        t_ref = legacy_build_kmer_table(k, counts)
        # Random rank of every k-mer, walked rank by rank in a random
        # order, like Ray/ABySS's per-rank seed shards.
        kmers = sorted(counts)
        rng = np.random.default_rng(seed)
        owner = rng.integers(0, n_ranks, size=len(kmers))
        # Some runs start from a visited set that already holds k-mers
        # (owner -1) no walk may enter.
        if seed % 3 == 0:
            owner[rng.random(len(kmers)) < 0.2] = -1
        premarked = [km for km, o in zip(kmers, owner) if o == -1]
        vis_ref = set(premarked)
        vis_new = set(
            packedmod.key_list(
                packedmod.pack(
                    np.frombuffer(b"".join(premarked), dtype=np.uint8).reshape(
                        len(premarked), k
                    )
                ),
                k,
            )
        )
        for r in rng.permutation(n_ranks).tolist():
            shard = [km for km, o in zip(kmers, owner) if o == r]
            if as_rows:
                mat = np.frombuffer(b"".join(shard), dtype=np.uint8)
                seeds = packedmod.pack(mat.reshape(len(shard), k))
            else:
                seeds = iter(shard)
            got = extract_unitigs(t_new, seeds=seeds, visited=vis_new)
            ref = legacy_extract_unitigs(t_ref, iter(shard), vis_ref)
            assert got[1] == ref[1]
            assert got[0] == ref[0]
        assert _visited_kmers(vis_new, k) == vis_ref
        # The unseeded whole-table walk matches too.
        got = extract_unitigs(t_new)
        ref = legacy_extract_unitigs(t_ref)
        assert got[1] == ref[1]
        assert got[0] == ref[0]


class TestLinkCacheInvalidation:
    """The successor arrays cached by the first extraction must not
    survive a change to the table."""

    READS = [
        "CTACTGGGGCACATCGTTCCTGTTTAGAGT",
        "CACATCGTTCCTGAAAGGCT",
        "GGGGCACATCGTTCC",
    ]

    def _counts(self, reads, k=7):
        return kmer_counts(canonical_kmers_varlen(reads, k))

    def test_drop_below(self):
        counts = self._counts(self.READS)
        t = build_kmer_table(7, counts)
        before = extract_unitigs(t)
        assert t.drop_below(2) > 0
        fresh = build_kmer_table(
            7, {km: c for km, c in counts.items() if c >= 2}
        )
        after = extract_unitigs(t)
        assert after == extract_unitigs(fresh)
        assert after != before

    def test_add_counts(self):
        counts = self._counts(self.READS[:1])
        extra = self._counts(self.READS[1:])
        t = build_kmer_table(7, counts)
        before = extract_unitigs(t)
        t.add_counts(extra)
        merged = dict(counts)
        for km, c in extra.items():
            merged[km] = merged.get(km, 0) + c
        after = extract_unitigs(t)
        assert after == extract_unitigs(build_kmer_table(7, merged))
        assert after != before
