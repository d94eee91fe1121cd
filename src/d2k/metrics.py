"""Graph measurements used to compare generated graphs against originals.

Everything here is read-only over an immutable digraph and deterministic
for a fixed configuration and seed.  Heavy computations (all-source BFS,
betweenness, eigenvalues) switch to seeded sampling or iterative solvers
above configurable size thresholds, with the switch recorded in the
report metadata.

Shared partners, strongly connected components and the spectrum run on
one sparse adjacency matrix, built once per graph (scipy, imported inside
those functions only, so loading the package for extraction or generation
does not pay for it).  The directed spectrum is solved on the cube of that
matrix, whose crowded top magnitudes lie three times further apart, and
the matrix's own eigenvalues are recovered by one Rayleigh-Ritz step on
the span of each Ritz vector x, A x and A^2 x.  Expansion counts the
second hop on the same matrix's square.  The triad census and the core
numbers read one symmetrized matrix, a + 2 a^T of that matrix a, whose
entries hold their dyads' arc bits.  Shortest paths and betweenness share
one level-synchronous breadth-first search of blocks of sources, a numpy
kernel over the graph's CSR arrays, as are neighbour degrees and degree
histograms.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import D2KError
from .graph import DirectedGraph, _first_copies, _tails
from .targets import check_seed, extract_d2k, extract_uman


def _adjacency(g: DirectedGraph):
    """g's adjacency matrix as an int64 CSR matrix with sorted column
    indices: ARPACK's matvec sums each row in index order, so the order
    reaches the last bits of the eigenvalues.  Built once per graph, from
    copies of its CSR arrays, and kept with it; callers must not change
    it."""
    if g._adjacency is None:
        from scipy.sparse import csr_matrix
        indptr, indices = g.csr()
        a = csr_matrix((np.ones(g.m, dtype=np.int64), indices.copy(),
                        indptr.copy()), shape=(g.n, g.n))
        a.sort_indices()
        g._adjacency = a
    return g._adjacency


def _row_entries(indptr: np.ndarray, rows: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR entries of rows, row after row, and the number
    of entries of each row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + \
        np.repeat(starts - ends + counts, counts), counts


def _symmetrized(g: DirectedGraph):
    """The symmetrized simple graph of g as the CSR matrix a + 2 a^T of its
    adjacency matrix a, with sorted column indices: the entry (u, v) holds
    its dyad's arc bits, 1 for u -> v and 2 for v -> u, so the pattern is
    symmetric."""
    a = _adjacency(g)
    s = a + 2 * a.T
    s.sort_indices()
    return s


def _histogram(values) -> dict[int, int]:
    """{value: count} of an integer array."""
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


# ---------------------------------------------------------------------------
# dyad and triad censuses

TRIAD_NAMES = ("003", "012", "102", "021D", "021U", "021C", "111D", "111U",
               "030T", "030C", "201", "120D", "120U", "120C", "210", "300")

# Batagelj/Mrvar code table: the 6 possible arcs of a triple, read as bits,
# map to one of the 16 isomorphism classes (1-based TRIAD_NAMES positions).
_TRICODES = (1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5,
             9, 9, 13, 6, 10, 9, 14, 7, 14, 12, 15, 2, 5, 6, 7, 6, 9, 10, 14,
             4, 9, 9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7, 12, 14, 15, 8, 14,
             13, 15, 11, 15, 15, 16)
_WEDGE_CHUNK = 1 << 14          # wedges classified per triad-census step


DYAD_ORDER = ("mutual", "asymmetric", "null")


def dyad_census(g: DirectedGraph) -> dict[str, int]:
    t = extract_uman(g)
    return {"mutual": t.mutual, "asymmetric": t.asymmetric, "null": t.null}


def triad_census(g: DirectedGraph) -> dict[str, int]:
    """Counts of the 16 directed triad classes.

    Batagelj and Mrvar's subquadratic census over arrays.  A triple with
    two or three connected pairs is a wedge (c; x < y) of the symmetrized
    graph, x and y neighbours of c, taken at its one center when x and y
    are not adjacent and at c = min otherwise; the wedges are classified
    in chunks of _WEDGE_CHUNK through the code table.  Each symmetrized
    entry (u, v) carries its dyad's two arc bits, u -> v and v -> u, so a
    wedge's code takes two lookups: its entry (c, x), found in the wedge
    numbering, and the entry (x, y), whose presence is the closure and
    whose bits are the x-y arcs.  A triple with one connected pair {a, b}
    is counted per pair as n - deg(a) - deg(b) + common(a, b), common
    counted from the closed wedges, and "003" is what is left.
    """
    n = g.n
    s = _symmetrized(g)
    owner, nbr = _tails(s.indptr), s.indices.astype(np.int64)
    deg, dyad = np.diff(s.indptr), s.data
    und = owner * n + nbr               # the entries' keys, sorted
    # entry e of row c makes a wedge with each later entry of row c
    later = deg.cumsum()[owner] - np.arange(und.size) - 1
    wedge_end = later.cumsum()
    wedges = int(wedge_end[-1]) if und.size else 0
    classes = np.zeros(17, dtype=np.int64)
    common = np.zeros(und.size, dtype=np.int64)
    code_class = np.array(_TRICODES)
    for lo in range(0, wedges, _WEDGE_CHUNK):
        t = np.arange(lo, min(lo + _WEDGE_CHUNK, wedges))
        e = np.searchsorted(wedge_end, t, side="right")
        f = e + 1 + t - (wedge_end[e] - later[e])
        xy = nbr[e] * n + nbr[f]
        p = np.minimum(np.searchsorted(und, xy), und.size - 1)
        closed = und[p] == xy
        keep = ~closed | (owner[e] < nbr[e])
        code = dyad[e] | dyad[f] << 2 | np.where(closed, dyad[p], 0) << 4
        classes += np.bincount(code_class[code[keep]], minlength=17)
        closed &= keep                  # each triangle once, at its min
        common += np.bincount(np.concatenate([e[closed], f[closed],
                                              p[closed]]),
                              minlength=und.size)
    pair = owner < nbr
    a, b = owner[pair], nbr[pair]
    lone = n - deg[a] - deg[b] + common[pair]
    mutual = dyad[pair] == 3
    census = dict(zip(TRIAD_NAMES, classes[1:].tolist()))
    census["012"] = int(lone[~mutual].sum())
    census["102"] = int(lone[mutual].sum())
    census["003"] = n * (n - 1) * (n - 2) // 6 - sum(census.values())
    return census


# ---------------------------------------------------------------------------
# dyad-wise shared partners, expansion, neighbor degrees

DSP_VARIANTS = ("independent_two_paths", "outgoing", "incoming")


def dsp(g: DirectedGraph, variant: str) -> dict[int, int]:
    """Histogram over ordered node pairs of their shared-partner count.

    independent_two_paths: partners w with i->w->j; outgoing: shared
    out-neighbors (i->w and j->w); incoming: shared in-neighbors.  The
    zero bin is included and computed arithmetically.
    """
    if variant not in DSP_VARIANTS:
        raise ValueError(f"unknown dsp variant {variant!r}")
    a = _adjacency(g)
    if variant == "independent_two_paths":
        shared = a @ a
    elif variant == "outgoing":
        shared = a @ a.T
    else:
        shared = a.T @ a
    shared.setdiag(0)
    shared.eliminate_zeros()
    hist = _histogram(shared.data)
    zero = g.n * (g.n - 1) - shared.nnz
    if zero:
        hist[0] = zero
    return hist


def expansion(g: DirectedGraph, direction: str) -> list[float]:
    """Per-node ratio |second hop| / |first hop|, nodes with no first hop
    omitted.  The second hop is the set at exact directed distance 2: it
    excludes the origin and every first-hop node, so mutual edges and
    edges inside the first hop never inflate it.
    """
    if direction not in ("out", "in"):
        raise ValueError(f"unknown direction {direction!r}")
    a = _adjacency(g)
    # reach: pairs joined by a two-step walk, less the first hop and the
    # origin; a node's out-hops are its row, its in-hops its column
    reach = a @ a
    reach -= reach.multiply(a)
    reach.setdiag(0)
    reach.eliminate_zeros()
    if direction == "out":
        first, second = np.diff(a.indptr), np.diff(reach.indptr)
    else:
        first = np.bincount(a.indices, minlength=g.n)
        second = np.bincount(reach.indices, minlength=g.n)
    has = first > 0
    return (second[has] / first[has]).tolist()


def avg_neighbor_degree(g: DirectedGraph, node_side: str,
                        neighbor_side: str) -> dict[int, Fraction]:
    """Mean neighbor degree per degree value, as exact rationals.

    node_side "out" groups edges by the source's out-degree (the neighbor
    is the target); node_side "in" groups by the target's in-degree (the
    neighbor is the source).  neighbor_side picks which degree of the
    neighbor is averaged.  The keys are in order of first appearance in
    g.edges(); the sums are float64 bincounts of integers, exact below
    2**53.
    """
    if node_side not in ("in", "out") or neighbor_side not in ("in", "out"):
        raise ValueError("sides must be 'in' or 'out'")
    indptr, heads = g.csr()
    degree = {"out": np.diff(indptr),
              "in": np.bincount(heads, minlength=g.n)}
    tails = _tails(indptr)
    node, nb = (tails, heads) if node_side == "out" else (heads, tails)
    key = degree[node_side][node]
    sums = np.bincount(key, weights=degree[neighbor_side][nb]).tolist()
    cnts = np.bincount(key).tolist()
    return {k: Fraction(int(sums[k]), cnts[k])
            for k in key[np.sort(_first_copies(key)[0])].tolist()}


def degree_histogram(g: DirectedGraph, side: str) -> dict[int, int]:
    indptr, heads = g.csr()
    return _histogram(np.bincount(heads, minlength=g.n) if side == "in"
                      else np.diff(indptr))


# ---------------------------------------------------------------------------
# paths, components, cores, betweenness, spectrum

# source x node entries per block of the paths and betweenness searches:
# at n = 2.3k, 2**16 entries (28 sources) took 0.76 of the betweenness time
# of 2**14 and peaked at 3.9 MiB of traced memory against 1.1 MiB
_BETWEENNESS_BLOCK = 1 << 16


def _sources(n: int, exact_nodes: int, count: int, seed: int) -> list[int]:
    """Every node when n <= exact_nodes, otherwise a seeded sample of
    count of them; count must be at least 1 either way."""
    if count < 1:
        raise ValueError(f"the source count must be at least 1, got {count}")
    if n <= exact_nodes:
        return list(range(n))
    return random.Random(seed).sample(range(n), min(count, n))


def _source_blocks(n: int, sources: list[int]):
    """sources in blocks of at most _BETWEENNESS_BLOCK source x node
    entries (one source at least), as int64 arrays."""
    step = max(1, _BETWEENNESS_BLOCK // max(n, 1))
    for i in range(0, len(sources), step):
        yield np.array(sources[i:i + step], dtype=np.int64)


def _levels(g: DirectedGraph, block: np.ndarray):
    """One level-synchronous breadth-first search from every source of
    block, over flat keys b * n + v.  For d = 1, 2, ... while the frontier
    is not empty, yields (frontier, tail, head, below): the nodes at
    distance d - 1, the shortest-path DAG arcs into distance d as
    positions in frontier and in below, and the nodes first reached at
    distance d.  A frontier is in stack order per source: its out-arcs are
    gathered in adjacency-list order and a new node is claimed by the
    least position that reaches it.
    """
    n = g.n
    indptr, indices = g.csr()
    seen = np.zeros(len(block) * n, dtype=bool)
    # position in its level; before a node is reached, the least position
    # among its level's arcs that reach it
    rank = np.full(seen.size, np.iinfo(np.int64).max)
    frontier = np.arange(len(block), dtype=np.int64) * n + block
    seen[frontier] = True
    rank[frontier] = np.arange(frontier.size)
    while frontier.size:
        v = frontier % n
        pos, counts = _row_entries(indptr, v)
        tail = np.repeat(np.arange(frontier.size), counts)
        head = np.repeat(frontier - v, counts) + indices[pos]
        dag = ~seen[head]
        fresh = head[dag]
        at = np.arange(fresh.size)
        np.minimum.at(rank, fresh, at)
        below = fresh[rank[fresh] == at]
        seen[below] = True
        rank[below] = np.arange(below.size)
        yield frontier, tail[dag], rank[fresh], below
        frontier = below


def shortest_path_histogram(g: DirectedGraph, sample_sources: int = 100,
                            exact_nodes: int = 1000,
                            seed: int = 1) -> tuple[dict[int, int], dict]:
    """Histogram of finite shortest-path lengths over ordered pairs.

    All sources when n <= exact_nodes, otherwise a seeded source sample.
    The searches are betweenness_values's, in the same source blocks: the
    pairs at distance d are the nodes first reached at level d.
    """
    n = g.n
    sources = _sources(n, exact_nodes, sample_sources, seed)
    counts = np.zeros(n + 1, dtype=np.int64)      # counts[d]: pairs at d <= n
    for block in _source_blocks(n, sources):
        for d, (*_, below) in enumerate(_levels(g, block), 1):
            counts[d] += below.size
    hist = {d: c for d, c in enumerate(counts.tolist()) if d and c}
    meta = {"sampled": n > exact_nodes, "sources": len(sources), "seed": seed}
    return hist, meta


def scc_size_histogram(g: DirectedGraph) -> dict[int, int]:
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(_adjacency(g), directed=True,
                                     connection="strong")
    return _histogram(np.bincount(labels))


def core_numbers(g: DirectedGraph) -> list[int]:
    """Core index per node on the symmetrized simple graph (the directed
    k-core is not uniquely defined; symmetrization is the conventional
    reading and is recorded in report metadata)."""
    n = g.n
    s = _symmetrized(g)
    nbr, deg = s.indices, np.diff(s.indptr)
    # peeling rounds: level k starts at the least degree left, each round
    # removes every node left with at most k neighbours left, and only the
    # removed nodes' neighbours can join the next round
    core = np.empty(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    left = np.arange(n)
    while left.size:
        k = int(deg[left].min())
        peel = left[deg[left] <= k]
        while peel.size:
            core[peel] = k
            alive[peel] = False
            touched = nbr[_row_entries(s.indptr, peel)[0]]
            touched = touched[alive[touched]]
            np.subtract.at(deg, touched, 1)
            peel = np.unique(touched[deg[touched] <= k])
        left = left[alive[left]]
    return core.tolist()


def core_number_histogram(g: DirectedGraph) -> dict[int, int]:
    return _histogram(core_numbers(g))


def betweenness_values(g: DirectedGraph, exact_nodes: int = 500,
                       pivots: int = 100, seed: int = 1) \
        -> tuple[list[float], dict]:
    """Directed shortest-path betweenness per node (Brandes accumulation),
    normalized by (n-1)(n-2) when n > 2.

    Exact below the node threshold, otherwise estimated from a seeded
    pivot sample scaled by n / #pivots.  Each block of sources runs one
    _levels search.  Its path counts are summed level by level over the
    DAG arcs, and its dependencies level by level from the deepest, each
    delta[v] over the arcs v -> w in decreasing stack position of w, as a
    per-source stack walk sums them.  Shortest-path counts are float64, as
    in networkx: exact below 2**53, and in the last bits of the values
    above it.  A count beyond the float64 range raises D2KError.
    """
    n = g.n
    sources = _sources(n, exact_nodes, pivots, seed)
    exact = n <= exact_nodes
    scale = 1.0 if exact else n / len(sources)
    bc = np.zeros(n)
    for block in _source_blocks(n, sources):
        sigma = np.ones(len(block))     # path counts of the frontier
        levels = []
        for frontier, tail, head, below in _levels(g, block):
            reached = np.bincount(head, weights=sigma[tail],
                                  minlength=below.size)
            if not np.isfinite(reached).all():
                raise D2KError("betweenness: a shortest-path count exceeds "
                               "the float64 range")
            order = np.argsort(-head, kind="stable")
            levels.append((frontier, sigma, reached, tail[order], head[order]))
            sigma = reached
        delta = np.zeros(len(block) * n)
        deeper = np.zeros(0)            # dependencies of the level below
        for frontier, sigma, reached, tail, head in reversed(levels):
            coeff = (1.0 + deeper[head]) / reached[head]
            deeper = np.bincount(tail, weights=sigma[tail] * coeff,
                                 minlength=frontier.size)
            delta[frontier] = deeper
        for s, row in zip(block, delta.reshape(len(block), n)):
            row[s] = 0.0
            bc += row * scale
    if n > 2:
        bc /= (n - 1) * (n - 2)
    meta = {"exact": exact, "sources": len(sources),
            "normalized": True, "seed": seed}
    return bc.tolist(), meta


_COINCIDE = 1e-10       # relative distance of Ritz values taken as one
_RANK_CUT = 1e-8        # singular values kept, relative to the largest
_RESIDUAL = 1e-10       # ||b z - theta z|| allowed, relative to max(|theta|, 1)


def _roots_of_cube(b, mu: np.ndarray, x: np.ndarray) -> list[complex]:
    """The eigenvalues of b behind ARPACK's Ritz pairs (mu, x) of b**3.

    An eigenvalue theta of b with theta**3 = mu is one of mu's three cube
    roots, and a strong component whose period is divisible by 3 has a
    spectrum invariant under rotation by a cube root of 1: then mu's Ritz
    vectors mix the eigenvectors of the rotated values.  Since b**3 x = mu x,
    the columns of x, b x and b**2 x span a b-invariant subspace, and one
    Rayleigh-Ritz step on it gives the eigenvalues b has there.  The Ritz
    vectors of coinciding values are taken together: q is an orthonormal
    basis of their span (singular values at most _RANK_CUT of the largest
    dropped), b q is read off the columns of b x, b**2 x and b**3 x, and
    each eigenpair (theta, w) of q^H b q is kept when z = q w has
    ||b z - theta z|| at most _RESIDUAL.  b is real, so each conjugate pair
    is solved from its member with Im mu > 0 and gives the conjugate values
    too (a lone Im mu < 0, which eigs leaves at the bottom when it splits
    the last pair, is dropped).
    """
    from scipy.linalg import eig, svd
    upper = mu.imag >= 0
    mu, y = mu[upper], x[:, upper]
    powers = [y]                       # b**p times the vectors, p = 0..3
    for _ in range(3):
        y = b @ y.real + 1j * (b @ y.imag)
        powers.append(y)
    thetas: list[complex] = []
    left = np.ones(len(mu), dtype=bool)
    for i in range(len(mu)):
        if not left[i]:
            continue
        group = left & (abs(mu - mu[i]) <= _COINCIDE * abs(mu[i]))
        left &= ~group
        span, image = (np.hstack([z[:, group] for z in part])
                       for part in (powers[:3], powers[1:]))
        u, s, vh = svd(span, full_matrices=False)
        keep = s > _RANK_CUT * s[0]
        # the full product, then the kept columns: a one-column complex
        # product is a zgemv, which OpenBLAS splits over its threads (8 ms
        # a call on a 2-core host, against 0.03 ms for the full product)
        q, bq = u[:, keep], (image @ vh.conj().T)[:, keep] / s[keep]
        theta, w = eig(q.conj().T @ bq)
        residual = np.linalg.norm(bq @ w - q @ w * theta, axis=0)
        for t in theta[residual <= _RESIDUAL * np.maximum(abs(theta), 1)]:
            thetas += [t, t.conjugate()] if mu[i].imag else [t]
    return thetas


def top_eigenvalues(g: DirectedGraph, k: int = 20, dense_nodes: int = 2000,
                    seed: int = 1) -> tuple[list[float], dict]:
    """Magnitudes of the k largest-magnitude adjacency eigenvalues.

    The adjacency matrix is block-triangular over the strong components, so
    its spectrum is the union of theirs, and a one-node component adds an
    exact 0.  The solve runs on the m nodes of the components with at least
    two nodes: dense when n <= dense_nodes or m is too small for the
    basis, otherwise implicitly restarted Arnoldi (seeded start vector,
    hence deterministic) for k + 10 values in a 3(k + 10) basis, of which
    the top k are kept, since the magnitudes near the k-th lie close
    together in a sparse digraph's bulk.

    The Arnoldi solve runs on b**3 (power 3): cubing maps |lambda| to
    |lambda|**3, which triples every relative gap between the crowded
    magnitudes and cut the Arnoldi steps 2- to 3.5-fold on the
    census-compare strong cores.  _roots_of_cube then recovers b's own
    eigenvalues from the Ritz vectors; recovering fewer than k of them is
    a solve that did not converge.  meta records what ran: method,
    solved_k, ncv, tol, power and nodes (= m).
    """
    if k < 0:
        raise ValueError(f"k must not be negative, got {k}")
    n = g.n
    k = min(k, n)
    if n == 0 or k == 0:
        return [], {"method": "none", "k": 0}
    from scipy.sparse.csgraph import connected_components
    a = _adjacency(g).astype(np.float64)
    _, labels = connected_components(a, directed=True, connection="strong")
    keep = np.flatnonzero(np.bincount(labels)[labels] >= 2)
    b = a[keep][:, keep]
    m = len(keep)
    solved = min(k + 10, m)
    ncv = min(3 * solved, m - 1)
    meta = {"method": "dense", "k": k, "solved_k": m, "ncv": None,
            "tol": None, "power": None, "nodes": m}
    if n <= dense_nodes or solved + 2 > ncv:       # eigs needs k + 1 < ncv
        b = b.toarray()
        vals = np.linalg.eigvals(b)
    else:
        import scipy.sparse.linalg
        v0 = np.random.default_rng(seed).standard_normal(m)
        failure = f"eigenvalue solve did not converge on {m} of {n} nodes " \
                  f"(k = {solved}, ncv = {ncv}, power = 3)"
        try:
            cube = scipy.sparse.linalg.LinearOperator(
                b.shape, matvec=lambda x: b @ (b @ (b @ x)), dtype=b.dtype)
            found = scipy.sparse.linalg.eigs(
                cube, k=solved, ncv=ncv, tol=0, which="LM", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise D2KError(f"{failure}: {exc}") from exc
        vals = _roots_of_cube(b, *found)
        if len(vals) < k:
            raise D2KError(f"{failure}: {len(vals)} eigenvalues recovered")
        meta.update(method="arpack", solved_k=solved, ncv=ncv, tol=0,
                    power=3)
    mags = sorted((float(abs(x)) for x in vals), reverse=True)[:k]
    return mags + [0.0] * (k - len(mags)), meta


# ---------------------------------------------------------------------------
# metric kinds: how each kind of value is stored, exported and compared.
# ensemble(orig, instances) compares the original with the instance average
# and distance(a, b) two values (by default the ensemble of one); 0 means
# identical.

def _relative_error(x, y):
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


class _Keyed:
    """{key: number}, exported as key,count rows in key order."""

    key_type = value_type = int

    def encode(self, value: dict) -> dict:
        return {str(k): v for k, v in value.items()}

    def decode(self, obj: dict) -> dict:
        return {self.key_type(k): self.value_type(v) for k, v in obj.items()}

    def csv_files(self, stem: str, value: dict) -> list[tuple[str, str]]:
        return [(stem, "key,count\n" + "".join(f"{k},{value[k]}\n"
                                               for k in sorted(value)))]

    def distance(self, a, b) -> float:
        return self.ensemble(a, [b])


class _Listed:
    """A list of numbers, exported as one sorted value per row."""

    def encode(self, values: list) -> list:
        return values

    decode = encode

    def csv_files(self, stem: str, values: list) -> list[tuple[str, str]]:
        return [(stem, "value\n" + "".join(f"{v}\n" for v in sorted(values)))]

    distance = _Keyed.distance


@dataclass(frozen=True)
class Counts(_Keyed):
    """A count histogram, compared as a probability distribution by the sup
    distance of the cumulative distributions, in numeric key order or in
    `order`.  A `joint` matrix, stored as one entry per unordered cell pair,
    is compared pointwise instead, each entry standing for both halves of
    the symmetric matrix.  The ensemble side is the mean of the instances'
    distributions.  All terms are integers over one denominator, divided
    once, so identical inputs give exactly 0.0.  With `nonzero_csv` the CSV
    export is also written without the 0 bin."""

    key_type: type = int
    order: tuple[str, ...] | None = None
    joint: bool = False
    nonzero_csv: bool = False

    def _total(self, hist: dict) -> int:
        return (2 if self.joint else 1) * (sum(hist.values()) or 1)

    def ensemble(self, orig: dict, instances: list[dict]) -> float:
        totals = [self._total(h) for h in instances]
        common = math.lcm(*totals)
        mean: dict = {}                 # numerators over len(instances) * common
        for h, total in zip(instances, totals):
            for k, c in h.items():
                mean[k] = mean.get(k, 0) + c * (common // total)
        t0, scale = self._total(orig), len(instances) * common
        worst = acc = 0
        for k in self.order or sorted(set(orig) | set(mean)):
            d = orig.get(k, 0) * scale - mean.get(k, 0) * t0
            acc = d if self.joint else acc + d
            worst = max(worst, abs(acc))
        return worst / (t0 * scale)

    def csv_files(self, stem: str, value: dict) -> list[tuple[str, str]]:
        files = super().csv_files(stem, value)
        if self.nonzero_csv:
            files += super().csv_files(f"{stem}_nonzero",
                                       {k: c for k, c in value.items() if k != 0})
        return files


class Means(_Keyed):
    """Mean values per key.  The ensemble averages each key, exactly, over
    the instances that have it; the distance is the sup over the keys of
    the absolute difference, a key missing on one side counting as 0."""

    value_type = float

    def ensemble(self, orig: dict, instances: list[dict]) -> float:
        acc: dict = {}
        cnt: dict = {}
        for value in instances:
            for k, v in value.items():
                acc[k] = acc.get(k, 0) + Fraction(v)
                cnt[k] = cnt.get(k, 0) + 1
        mean = {k: acc[k] / cnt[k] for k in acc}
        return float(max((abs(Fraction(orig.get(k, 0)) - mean.get(k, 0))
                          for k in orig.keys() | mean.keys()), default=0))


class Values(_Listed):
    """A sample of values, compared with the instances' pooled values by the
    Kolmogorov-Smirnov distance, exactly: i/len(a) - j/len(b) is
    cross-multiplied and the result divided once.  The counts i and j at
    every value come from binary searches of the two sorted float64
    arrays."""

    def ensemble(self, orig: list, instances: list[list]) -> float:
        own = np.sort(np.asarray(orig, dtype=np.float64))
        pooled = np.sort(np.concatenate(
            [np.asarray(values, dtype=np.float64) for values in instances]))
        if not own.size and not pooled.size:
            return 0.0
        if not own.size or not pooled.size:
            return 1.0
        at = np.concatenate([own, pooled])
        worst = np.abs(np.searchsorted(own, at, side="right") * pooled.size
                       - np.searchsorted(pooled, at, side="right") * own.size)
        return int(worst.max()) / (own.size * pooled.size)


class Vector(_Listed):
    """Values by rank: the largest relative error over the ranks, the
    shorter vector padded with zeros.  One instance is compared in floating
    point, the ensemble against the exact mean per rank."""

    def distance(self, a: list, b: list) -> float:
        size = max(len(a), len(b))
        a, b = a + [0.0] * (size - len(a)), b + [0.0] * (size - len(b))
        return max((_relative_error(x, y) for x, y in zip(a, b)), default=0.0)

    def ensemble(self, orig: list, instances: list[list]) -> float:
        width = max(len(orig), *(len(values) for values in instances))
        mean = [Fraction(0)] * width
        for values in instances:
            for i, x in enumerate(values):
                mean[i] += Fraction(x)
        xs = [Fraction(x) for x in orig] + [Fraction(0)] * (width - len(orig))
        return float(max((_relative_error(x, y / len(instances))
                          for x, y in zip(xs, mean)), default=0))


class Family:
    """{member: part}, each part stored, exported and compared as `kind`;
    the family's distance is the largest of its members'."""

    def __init__(self, kind, members: tuple[str, ...]):
        self.kind, self.members = kind, members

    def encode(self, value: dict) -> dict:
        return {m: self.kind.encode(p) for m, p in value.items()}

    def decode(self, obj: dict) -> dict:
        return {m: self.kind.decode(p) for m, p in obj.items()}

    def csv_files(self, stem: str, value: dict) -> list[tuple[str, str]]:
        return [f for m in self.members
                for f in self.kind.csv_files(f"{stem}_{m}", value[m])]

    def distance(self, a: dict, b: dict) -> float:
        return max(self.kind.distance(p, b[m]) for m, p in a.items())

    def ensemble(self, orig: dict, instances: list[dict]) -> float:
        return max(self.kind.ensemble(p, [value[m] for value in instances])
                   for m, p in orig.items())


# ---------------------------------------------------------------------------
# the metric table

@dataclass(frozen=True)
class Metric:
    """One metric: its compute call, its kind, and its place in the files.

    compute(g, config) gives the value, or (value, meta) when meta_key is
    set; a Family is computed one member at a time, compute(g, config, m).
    """

    name: str
    kind: _Keyed | _Listed | Family
    key: str                        # key in the "metrics" object of a file
    csv: str | None                 # CSV file stem; None: no CSV
    compute: Callable
    split_key: bool = False         # Family members stored at key_member
    meta_key: str | None = None
    note: str | None = None         # modelling assumption, kept in the report

    def measure(self, g: DirectedGraph, config: MetricsConfig):
        """(value, meta or None) of this metric on g."""
        if isinstance(self.kind, Family):
            return {m: self.compute(g, config, m)
                    for m in self.kind.members}, None
        result = self.compute(g, config)
        return result if self.meta_key else (result, None)

    def to_json(self, value, meta) -> dict:
        """This metric's entries in a metrics file; null when not computed."""
        enc = None if value is None else self.kind.encode(value)
        if self.split_key:
            out = {f"{self.key}_{m}": None if enc is None else enc[m]
                   for m in self.kind.members}
        else:
            out = {self.key: enc}
        return {**out, self.meta_key: meta} if self.meta_key else out

    def from_json(self, entries: dict):
        """(value, meta), None where absent, from a file's "metrics" object."""
        if self.split_key:
            raw = {m: entries.get(f"{self.key}_{m}") for m in self.kind.members}
            raw = None if None in raw.values() else raw
        else:
            raw = entries.get(self.key)
        return (None if raw is None else self.kind.decode(raw),
                entries.get(self.meta_key) if self.meta_key else None)


HISTOGRAM = Counts()

# Adding a metric is one row here plus its compute function.  The rows look
# their function up in this module when called, not when defined.
METRICS = (
    Metric("degrees", Family(HISTOGRAM, ("in", "out")), "degree_hist",
           "degree", lambda g, c, side: degree_histogram(g, side),
           split_key=True),
    Metric("neighbor_degrees",
           Family(Means(), ("out_in", "out_out", "in_in", "in_out")),
           "neighbor_degree", "neighbor_degree",
           lambda g, c, combo: {k: float(v) for k, v in avg_neighbor_degree(
               g, *combo.split("_")).items()}),
    Metric("degree_correlation", Counts(str, joint=True),
           "degree_correlation", None,
           lambda g, c: {f"{a.side}:{a.label}|{b.side}:{b.label}": count
                         for (a, b), count in extract_d2k(g).jdam.items()}),
    Metric("dyad_census", Counts(str, DYAD_ORDER), "dyads", "dyad_census",
           lambda g, c: dyad_census(g)),
    Metric("triad_census", Counts(str, TRIAD_NAMES), "triads", "triad_census",
           lambda g, c: triad_census(g)),
    Metric("paths", HISTOGRAM, "path_hist", "shortest_paths",
           lambda g, c: shortest_path_histogram(
               g, c.sample_sources, c.path_exact_nodes, c.seed),
           meta_key="path_meta"),
    Metric("scc", HISTOGRAM, "scc_hist", "scc_sizes",
           lambda g, c: scc_size_histogram(g)),
    Metric("kcore", HISTOGRAM, "kcore_hist", "kcore",
           lambda g, c: core_number_histogram(g),
           note="computed on the symmetrized simple graph"),
    Metric("betweenness", Values(), "betweenness", "betweenness",
           lambda g, c: betweenness_values(
               g, c.betweenness_exact_nodes, c.sample_sources, c.seed),
           meta_key="betweenness_meta"),
    Metric("eigenvalues", Vector(), "eigenvalues", "eigenvalues",
           lambda g, c: top_eigenvalues(
               g, c.eigen_k, c.eigen_dense_nodes, c.seed),
           meta_key="eigen_meta"),
    Metric("dsp", Family(Counts(nonzero_csv=True), DSP_VARIANTS), "dsp", "dsp",
           lambda g, c, variant: dsp(g, variant)),
    Metric("expansion", Family(Values(), ("out", "in")), "expansion",
           "expansion", lambda g, c, direction: expansion(g, direction),
           note="second hop excludes the origin and all first-hop nodes"),
)
METRIC_NAMES = tuple(row.name for row in METRICS)


# ---------------------------------------------------------------------------
# the assembled report

@dataclass(frozen=True)
class MetricsConfig:
    metrics: tuple[str, ...] = ("all",)
    seed: int = 1
    sample_sources: int = 100
    path_exact_nodes: int = 1000
    betweenness_exact_nodes: int = 500
    eigen_k: int = 20
    eigen_dense_nodes: int = 2000

    def __post_init__(self):
        if not isinstance(self.metrics, (list, tuple)):
            raise ValueError(f"metrics must be a list or tuple of metric "
                             f"names, got {self.metrics!r}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = [m for m in self.metrics
                   if m != "all" and m not in METRIC_NAMES]
        if unknown:
            raise ValueError("unknown metric name(s): " + ", ".join(
                m if isinstance(m, str) else repr(m) for m in unknown))
        for name in ("seed", "sample_sources", "path_exact_nodes",
                     "betweenness_exact_nodes", "eigen_k", "eigen_dense_nodes"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        check_seed(self.seed)
        if self.sample_sources < 1:
            raise ValueError(
                f"sample_sources must be at least 1, got {self.sample_sources}")
        if self.eigen_k < 0:
            raise ValueError(f"eigen_k must not be negative, got {self.eigen_k}")

    def selected(self) -> tuple[str, ...]:
        if "all" in self.metrics:
            return METRIC_NAMES
        return tuple(m for m in METRIC_NAMES if m in self.metrics)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "metrics": list(self.selected())}


@dataclass
class CensusReport:
    """All measurements of one graph: values[name] of each selected metric,
    and meta[name] of those that record how they were computed."""

    n: int
    m: int
    config: MetricsConfig
    values: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, dict] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


def structural_suite(g: DirectedGraph, config: MetricsConfig | None = None) \
        -> CensusReport:
    """Compute the selected metrics of g into one report."""
    config = config or MetricsConfig()
    wanted = config.selected()
    report = CensusReport(n=g.n, m=g.m, config=config)
    for row in METRICS:
        if row.name in wanted:
            report.values[row.name], meta = row.measure(g, config)
            if meta is not None:
                report.meta[row.name] = meta
            if row.note:
                report.notes[row.name] = row.note
    return report
