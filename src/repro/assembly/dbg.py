"""De Bruijn graph construction and unitig extraction (packed engine).

The graph is implicit: a :class:`KmerTable` maps canonical k-mers to
coverage counts, and adjacency is discovered by membership queries on the
four possible single-base extensions — the classic hash-based DBG
(Velvet/ABySS/Ray all work this way).

K-mers live in the 2-bit packed representation of
:mod:`repro.assembly.packed`: the table stores sorted packed rows with an
aligned count column, and membership and coverage are batched binary
searches over those rows.  :func:`extract_unitigs` does not probe per
step: one batched adjacency pass per table (four probes over every
oriented k-mer) yields a successor array, cached on the table, and each
walk is then a plain integer chase through it.  The walk is the
sequential one of ``repro.assembly.reference_impl``, so contigs, walk
step counts and emission order are bit-identical to the bytes-dict
engine — only real wall-time changes.

Orientation handling: the table stores *canonical* k-mers, but walking
operates on *oriented* k-mers; every membership test canonicalizes first.
A unitig is a maximal path along which every interior node has exactly
one successor and one predecessor.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.assembly import packed as packedmod
from repro.seq import alphabet

_BASES = (0, 1, 2, 3)

#: Resident bytes per stored k-mer.  The real assemblers pack k-mers into
#: 2-bit words with open-addressing tables (Ray ~14 B, ABySS ~16 B per
#: k-mer); memory extrapolations to paper scale use this constant, which
#: the packed layout (two uint64 words) now matches physically.
KMER_RECORD_BYTES = 16


class KmerTable:
    """Canonical k-mer -> coverage count, as sorted packed rows.

    Rows are kept sorted by packed key (== bytes-lexicographic k-mer
    order), with counts in an aligned ``int64`` column.  All lookups are
    batched binary searches; the ``counts`` property materializes the
    historical ``dict[bytes, int]`` view on demand for compatibility.
    """

    def __init__(self, k: int, counts: dict[bytes, int] | None = None) -> None:
        packedmod.check_k(k)
        self.k = k
        self.words = packedmod.words_for(k)
        self._packed = np.zeros((0, self.words), dtype=np.uint64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._dict: dict[bytes, int] | None = None
        self._links: tuple[np.ndarray, np.ndarray] | None = None
        if counts:
            self.add_counts(counts)

    @classmethod
    def from_packed(
        cls,
        k: int,
        packed_rows: np.ndarray,
        counts: np.ndarray,
        presorted: bool = False,
    ) -> "KmerTable":
        """Build from *distinct* packed rows and their counts.

        ``presorted=True`` skips the sort for rows already in ascending
        key order — the cache-served path of the fused extraction layer
        (:mod:`repro.assembly.sweep`), where the shared spectrum stores
        its distinct rows sorted once.  Sortedness is re-checked only
        under :data:`repro.assembly.packed.DEBUG_SORTED_ENV`.
        """
        t = cls(k)
        rows = np.asarray(packed_rows, dtype=np.uint64).reshape(-1, t.words)
        if presorted:
            if packedmod.debug_assert_sorted_enabled():
                packedmod.assert_sorted(packedmod.keys(rows, k))
            t._packed = np.ascontiguousarray(rows)
            t._counts = np.asarray(counts, dtype=np.int64)
            return t
        order = np.argsort(packedmod.keys(rows, k), kind="stable")
        t._packed = np.ascontiguousarray(rows[order])
        t._counts = np.asarray(counts, dtype=np.int64)[order]
        return t

    # -- views -------------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """Sorted canonical rows, ``(n, W)`` uint64 (do not mutate)."""
        return self._packed

    @property
    def count_array(self) -> np.ndarray:
        """Coverage counts aligned with :attr:`packed`."""
        return self._counts

    @property
    def counts(self) -> dict[bytes, int]:
        """Read-only dict view (canonical code-bytes -> count), in sorted
        k-mer order — the historical representation, built lazily."""
        if self._dict is None:
            kms = packedmod.unpack_to_bytes(self._packed, self.k)
            self._dict = dict(zip(kms, self._counts.tolist()))
        return self._dict

    def __len__(self) -> int:
        return int(self._counts.shape[0])

    # -- batched lookups ----------------------------------------------------

    def find_rows(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact membership of packed ``(m, W)`` rows, and each found
        row's index into :attr:`packed` (see :func:`packed.find_rows`)."""
        query = np.asarray(query, dtype=np.uint64).reshape(-1, self.words)
        return packedmod.find_rows(self._packed, query)

    # -- single-k-mer compatibility API ------------------------------------

    def _lookup_oriented(self, oriented: bytes) -> tuple[bool, int]:
        row = packedmod.canonicalize(packedmod.pack_bytes_kmer(oriented), self.k)
        found, idx = self.find_rows(row)
        if not found[0]:
            return False, 0
        return True, int(self._counts[idx[0]])

    def __contains__(self, oriented: bytes) -> bool:
        return self._lookup_oriented(oriented)[0]

    def coverage(self, oriented: bytes) -> int:
        return self._lookup_oriented(oriented)[1]

    def add_counts(self, other: dict[bytes, int]) -> None:
        """Merge a counts dict (keys must already be canonical)."""
        if not other:
            return
        kms = list(other.keys())
        mat = np.frombuffer(b"".join(kms), dtype=np.uint8).reshape(
            len(kms), self.k
        )
        rows = packedmod.pack(mat)
        cnt = np.fromiter(other.values(), dtype=np.int64, count=len(kms))
        all_rows = np.concatenate([self._packed, rows], axis=0)
        all_cnt = np.concatenate([self._counts, cnt])
        key_arr = packedmod.keys(all_rows, self.k)
        uniq, first, inverse = np.unique(
            key_arr, return_index=True, return_inverse=True
        )
        summed = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(summed, inverse, all_cnt)
        self._packed = np.ascontiguousarray(all_rows[first])
        self._counts = summed
        self._dict = None
        self._links = None

    def drop_below(self, min_count: int) -> int:
        """Remove k-mers with coverage below ``min_count``; returns #removed."""
        keep = self._counts >= min_count
        removed = int(keep.size - keep.sum())
        if removed:
            self._packed = np.ascontiguousarray(self._packed[keep])
            self._counts = self._counts[keep]
            self._dict = None
            self._links = None
        return removed

    def memory_bytes(self) -> int:
        """Resident size a packed (real-tool) k-mer table would need."""
        return len(self) * KMER_RECORD_BYTES

    # -- adjacency ---------------------------------------------------------

    def unitig_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Successor arrays ``(link, base)`` over the *oriented* nodes.

        Row ``i`` is two nodes: ``2i`` (the stored canonical k-mer) and
        ``2i + 1`` (its reverse complement).  Four batched probes over
        all ``2n`` oriented rows (``extend_right`` by each base) give
        every node's out-degree, its successor's id and that successor's
        base.  A node's in-degree is the out-degree of its reverse
        complement (``v ^ 1``), so ``link[v]`` is the successor id when
        the step stays inside a unitig (out(v) = 1 and in(succ) = 1) and
        -1 otherwise; ``base[v]`` is the base that step appends.

        Computed once per table contents (``add_counts`` and
        ``drop_below`` invalidate it), so the per-rank walks of the
        distributed assemblers share one pass.
        """
        if self._links is not None:
            return self._links
        k = self.k
        n = len(self)
        nodes = np.empty((2 * n, self.words), dtype=np.uint64)
        nodes[0::2] = self._packed
        nodes[1::2] = packedmod.revcomp(self._packed, k)
        out_deg = np.zeros(2 * n, dtype=np.int8)
        succ = np.zeros(2 * n, dtype=np.int64)
        base = np.zeros(2 * n, dtype=np.uint8)
        for b in _BASES:
            ext = packedmod.extend_right(nodes, k, b)
            canon = packedmod.canonicalize(ext, k)
            found, row = self.find_rows(canon)
            node = 2 * row + (ext != canon).any(axis=1)
            out_deg += found
            succ[found] = node[found]
            base[found] = b
        one = out_deg == 1
        link = np.where(one & one[succ ^ 1], succ, -1).astype(np.int32)
        self._links = (link, base)
        return self._links

    def successors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by appending one base."""
        row = packedmod.pack_bytes_kmer(oriented)
        ext = np.concatenate(
            [packedmod.extend_right(row, self.k, b) for b in _BASES], axis=0
        )
        found = self.find_rows(packedmod.canonicalize(ext, self.k))[0]
        suffix = oriented[1:]
        return [suffix + bytes([b]) for b in _BASES if found[b]]

    def predecessors(self, oriented: bytes) -> list[bytes]:
        """Oriented k-mers reachable by prepending one base."""
        row = packedmod.pack_bytes_kmer(oriented)
        ext = np.concatenate(
            [packedmod.extend_left(row, self.k, b) for b in _BASES], axis=0
        )
        found = self.find_rows(packedmod.canonicalize(ext, self.k))[0]
        prefix = oriented[:-1]
        return [bytes([b]) + prefix for b in _BASES if found[b]]


def build_kmer_table(k: int, counts: dict[bytes, int]) -> KmerTable:
    """Wrap a counts dict (keys must already be canonical)."""
    return KmerTable(k=k, counts=counts)


def build_kmer_table_packed(
    k: int,
    packed_rows: np.ndarray,
    counts: np.ndarray,
    presorted: bool = False,
) -> KmerTable:
    """Wrap distinct packed canonical rows + counts without conversions."""
    return KmerTable.from_packed(k, packed_rows, counts, presorted=presorted)


class Unitig:
    """A maximal non-branching path: its sequence codes and coverage."""

    __slots__ = ("codes", "coverage", "n_kmers")

    def __init__(self, codes: np.ndarray, coverage: float, n_kmers: int):
        self.codes = codes  # uint8, length >= k
        self.coverage = coverage  # mean k-mer coverage
        self.n_kmers = n_kmers

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Unitig)
            and np.array_equal(self.codes, other.codes)
            and self.coverage == other.coverage
            and self.n_kmers == other.n_kmers
        )

    def __repr__(self) -> str:
        return (
            f"Unitig(len={len(self)}, coverage={self.coverage:.2f}, "
            f"n_kmers={self.n_kmers})"
        )

    @property
    def seq(self) -> str:
        return alphabet.decode(self.codes)


def extract_unitigs(
    table: KmerTable,
    seeds: Iterable[bytes] | np.ndarray | None = None,
    visited: set | None = None,
) -> tuple[list[Unitig], int]:
    """Extract all unitigs; returns (unitigs, total_walk_steps).

    ``seeds`` restricts the k-mers from which walks may start (used by the
    distributed assemblers to attribute work to ranks): a packed ``(m, W)``
    row array (the fast path), an iterable of code-bytes k-mers (the
    historical API), or None for every table k-mer in sorted order.
    ``visited`` may be shared across calls so that different rank shards
    never emit the same unitig twice; it holds packed key scalars.

    Each seed walks right from its forward node, then left from its
    reverse complement, following the table's cached successor array
    (:meth:`KmerTable.unitig_links`) until a link breaks or reaches a
    k-mer already walked — the sequential walk of
    ``repro.assembly.reference_impl``, so unitigs, orientation, emission
    order and step count are identical to it.
    """
    if visited is None:
        visited = set()
    k = table.k
    if seeds is None:
        seed_rows = table.packed
    elif isinstance(seeds, np.ndarray):
        seed_rows = np.asarray(seeds, dtype=np.uint64).reshape(-1, table.words)
    else:
        seed_list = [bytes(s) for s in seeds]
        if seed_list:
            mat = np.frombuffer(b"".join(seed_list), dtype=np.uint8).reshape(
                len(seed_list), k
            )
            seed_rows = packedmod.pack(mat)
        else:
            seed_rows = np.zeros((0, table.words), dtype=np.uint64)

    # A seed must be present in the table under its exact (canonical) key.
    in_table, seed_idx = table.find_rows(seed_rows)
    seed_idx = seed_idx[in_table]
    # ``done`` marks the rows this call walks.  Keys already in
    # ``visited`` are checked per seed here and, through ``prior``, per
    # step below, so the set is never converted as a whole.
    prior = None
    if visited and seed_idx.size:
        prior = packedmod.keys(table.packed, k)
        seen = np.fromiter(
            map(visited.__contains__, prior[seed_idx].tolist()),
            dtype=bool,
            count=seed_idx.size,
        )
        seed_idx = seed_idx[~seen]
    link_arr, base_arr = table.unitig_links()
    link = memoryview(link_arr)
    base = memoryview(base_arr)
    cov = memoryview(table.count_array)
    done = bytearray(len(table))

    walks: list[tuple[int, bytearray, bytearray, int, int]] = []
    steps = 0
    for s in seed_idx.tolist():
        if done[s]:
            continue
        done[s] = 1
        cov_sum = cov[s]
        n = 1
        chains = (bytearray(), bytearray())
        for v, chain in zip((2 * s, 2 * s + 1), chains):
            while True:
                nxt = link[v]
                if nxt < 0:
                    break
                row = nxt >> 1
                if done[row] or (prior is not None and prior[row] in visited):
                    break  # loop, palindromic re-entry or an earlier walk
                done[row] = 1
                chain.append(base[v])
                cov_sum += cov[row]
                n += 1
                v = nxt
        walks.append((s, chains[0], chains[1], cov_sum, n))
        steps += n
    if not walks:
        return [], 0

    walked = np.flatnonzero(np.frombuffer(done, dtype=np.uint8))
    visited.update(packedmod.key_list(table.packed[walked], k))
    starts = packedmod.unpack_to_bytes(table.packed[[w[0] for w in walks]], k)
    unitigs: list[Unitig] = []
    for (_, right, left, cov_sum, n), start in zip(walks, starts):
        codes = bytearray(3 - b for b in reversed(left))
        codes += start
        codes += right
        unitigs.append(
            Unitig(
                codes=np.frombuffer(codes, dtype=np.uint8),
                coverage=cov_sum / n,
                n_kmers=n,
            )
        )
    return unitigs, steps
