//! Workload topology generators.
//!
//! These produce the graph families used throughout the test suite and the
//! experiment harness (README § Campaigns): structured families with known
//! diameters, random bounded-degree strongly-connected digraphs, the
//! paper's motivating "bidirectional network with directional faults"
//! (§1.2.2), and the Lemma 5.1 lower-bound family (full binary tree with
//! bidirectional edges plus a permuted loop through the leaves).
//!
//! All generators are deterministic: identical arguments (including seeds)
//! produce identical port-level topologies.
//!
//! These functions are the *backends* of the declarative
//! [`TopologySpec`](crate::spec::TopologySpec) layer: every family here has
//! a spec variant (`"ring:64"`, `"debruijn:2,5"`, …) whose `build()`
//! dispatches to the corresponding generator, so workloads can be written
//! as data and still produce port-for-port identical networks.
//!
//! Generators wire fixed shapes through `TopologyBuilder`, so every
//! `connect`/`build` call is on inputs the function itself computed; a
//! failure is a generator bug, and panicking with the builder's message
//! is the most diagnosable outcome. Hence the module-wide exemption
//! from the crate's `unwrap_used`/`expect_used` policy.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::algo::is_strongly_connected;
use crate::ids::NodeId;
use crate::rng::DetRng;
use crate::topology::{Topology, TopologyBuilder};

/// Directed ring `0 → 1 → … → n-1 → 0`. N = n, D = n − 1, δ = 2.
///
/// The worst case for the paper's O(N·D) bound (D = N − 1) and the family
/// used for the RCA distance sweep (E3): every node is at loop distance
/// exactly n from the root through the ring.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 2);
    let mut b = TopologyBuilder::new(n, 2);
    for u in 0..n {
        b.connect_auto(NodeId(u as u32), NodeId(((u + 1) % n) as u32))
            .expect("ring wiring");
    }
    b.build().expect("ring is a valid network")
}

/// Bidirectional line `0 ↔ 1 ↔ … ↔ n-1`. N = n, D = n − 1, δ = 2.
///
/// Distance from the root (node 0) to node k and back is exactly 2k, which
/// gives a second, independent distance sweep for E3/E4.
pub fn line_bidi(n: usize) -> Topology {
    assert!(n >= 2);
    let mut b = TopologyBuilder::new(n, 2);
    for u in 0..n - 1 {
        b.connect_auto(NodeId(u as u32), NodeId(u as u32 + 1))
            .expect("line wiring");
        b.connect_auto(NodeId(u as u32 + 1), NodeId(u as u32))
            .expect("line wiring");
    }
    b.build().expect("line is a valid network")
}

/// Directed torus on a `w × h` grid with wrap-around "right" and "down"
/// edges only. N = w·h, D = (w−1) + (h−1), δ = 2.
pub fn torus(w: usize, h: usize) -> Topology {
    assert!(w >= 2 && h >= 1 && w * h >= 2);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    let mut b = TopologyBuilder::new(w * h, 2);
    for y in 0..h {
        for x in 0..w {
            b.connect_auto(id(x, y), id((x + 1) % w, y))
                .expect("torus right");
            if h >= 2 {
                b.connect_auto(id(x, y), id(x, (y + 1) % h))
                    .expect("torus down");
            }
        }
    }
    b.build().expect("torus is a valid network")
}

/// De Bruijn graph B(k, m) on k^m nodes: `u → (u·k + a) mod k^m`, with the
/// self-loops at the two fixed points dropped (self-loops are outside the
/// model, README, reconstruction choice 3). D = m = log_k N, δ = k — the
/// "large network with small diameter" regime in which the paper's
/// protocol is asymptotically optimal.
pub fn debruijn(k: usize, m: usize) -> Topology {
    assert!(k >= 2 && m >= 1);
    let n = k.pow(m as u32);
    assert!(n >= 2);
    let mut b = TopologyBuilder::new(n, k as u8);
    for u in 0..n {
        for a in 0..k {
            let v = (u * k + a) % n;
            if v != u {
                b.connect_auto(NodeId(u as u32), NodeId(v as u32))
                    .expect("debruijn wiring");
            }
        }
    }
    b.build().expect("debruijn is a valid network")
}

/// Attempts per block of [`random_sc`]'s attempt loop.
const ATTEMPT_BLOCK: usize = 256;

/// Random strongly-connected digraph with degrees bounded by `delta`.
///
/// Construction: a random Hamiltonian cycle (guaranteeing strong
/// connectivity and one in-/out-port per node), then random extra edges
/// added wherever both endpoints have free ports, skipping self-loops and
/// duplicate (same-direction) pairs. Extra edges are attempted until ~
/// `(delta − 1) · n` additions or the attempt budget (20 attempts per
/// targeted addition, plus 100) runs out, yielding an expected out-degree
/// close to δ.
///
/// At large n the loop runs to its attempt budget: at n = 1,000,000, δ = 3,
/// seed 9 it makes 40,000,100 attempts and accepts 1,964,213 of them:
/// once most ports are wired, nearly every attempt is rejected. No attempt
/// reads the builder's slot tables in the common case. The per-node port
/// counts answer the free-port checks, and an attempt whose `u` is full
/// skips `v`'s draw uncomputed; attempts run in blocks that sort those
/// out without a branch each. A Bloom filter over the wired pairs
/// (`PairFilter`) rules out duplicates, and only its hits (71,630 there,
/// 5 of them real duplicates) scan `u`'s slots. Wiring only writes the
/// tables: nothing here leaves a port gap, so `connect_auto` takes the
/// counts as the ports. The stream and the accepted edges are the same as
/// drawing and checking every pair in full, one attempt at a time.
///
/// Cost there (temporary wall timers, 2-vCPU x86-64 host, 9 builds):
/// shuffle, allocation and cycle 115–213 ms, attempt loop 394–815 ms, pack
/// and check 48–83 ms. The loop's time is mostly the 40M draws.
pub fn random_sc(n: usize, delta: u8, seed: u64) -> Topology {
    assert!(n >= 2 && delta >= 2);
    let mut rng = DetRng::seed_from_u64(seed ^ 0x6774645f72616e64); // "gtd_rand"
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut b = TopologyBuilder::new(n, delta);
    let mut wired = PairFilter::new(n * delta as usize);
    for w in 0..n {
        let (u, v) = (NodeId(order[w]), NodeId(order[(w + 1) % n]));
        b.connect_auto(u, v).expect("hamiltonian cycle wiring");
        wired.insert(u, v);
    }
    let target_extra = n * (delta as usize - 1);
    let attempt_budget = target_extra * 20 + 100;
    // Every attempt takes two draws, `u` and then `v` (skipped uncomputed
    // when `u` is full), so attempt `k` of a block reads draws `2k` and
    // `2k + 1` from the block's start, whatever came before. At scale most
    // attempts draw a `u` whose out-ports are all wired and fail whatever
    // `v` is, so a block first picks out, with no branch per attempt, the
    // attempts whose `u` had a free out-port at the block's start. Counts
    // only grow, so the others fail anyway; a picked one is checked in
    // full, as an earlier pick may have filled its `u` since.
    let mut picked = [(0u32, NodeId(0)); ATTEMPT_BLOCK];
    let (mut added, mut attempts) = (0usize, 0usize);
    'attempts: while added < target_extra && attempts < attempt_budget {
        let len = ATTEMPT_BLOCK.min(attempt_budget - attempts);
        let mut picks = 0;
        for k in 0..len {
            let u = NodeId(rng.peek_range(2 * k as u64, 0..n as u32));
            picked[picks] = (k as u32, u);
            picks += usize::from(b.out_degree(u) < delta as usize);
        }
        for &(k, u) in &picked[..picks] {
            let v = NodeId(rng.peek_range(2 * u64::from(k) + 1, 0..n as u32));
            if !b.can_connect(u, v) || (wired.may_contain(u, v) && b.has_edge(u, v)) {
                continue;
            }
            b.connect_auto(u, v).expect("checked free ports");
            wired.insert(u, v);
            added += 1;
            if added == target_extra {
                break 'attempts;
            }
        }
        rng.skip(2 * len as u64);
        attempts += len;
    }
    drop(wired);
    let t = b.build().expect("random_sc is a valid network");
    debug_assert!(is_strongly_connected(&t));
    t
}

/// A blocked Bloom filter over directed node pairs: a pair sets three bits
/// of one 64-bit word chosen by its hash. No false negatives, so a miss
/// proves a pair unwired without reading the builder's slot tables; a hit
/// is confirmed with [`TopologyBuilder::has_edge`]. One word per 16
/// expected pairs (rounded up to a power of two) keeps the false-hit rate
/// under ~10% at δ·n pairs: 2 MiB at n = 1,000,000, δ = 3.
struct PairFilter {
    words: Vec<u64>,
}

impl PairFilter {
    fn new(pairs: usize) -> Self {
        PairFilter {
            words: vec![0; (pairs.next_power_of_two() / 16).max(1)],
        }
    }

    /// The word index and bit mask of `(u, v)`.
    #[inline]
    fn probe(&self, u: NodeId, v: NodeId) -> (usize, u64) {
        let mut h = (u64::from(u.0) << 32 | u64::from(v.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        let mask = (1u64 << (h & 63)) | (1u64 << (h >> 6 & 63)) | (1u64 << (h >> 12 & 63));
        ((h >> 32) as usize & (self.words.len() - 1), mask)
    }

    #[inline]
    fn insert(&mut self, u: NodeId, v: NodeId) {
        let (w, mask) = self.probe(u, v);
        self.words[w] |= mask;
    }

    /// False only if `(u, v)` was never inserted.
    #[inline]
    fn may_contain(&self, u: NodeId, v: NodeId) -> bool {
        let (w, mask) = self.probe(u, v);
        self.words[w] & mask == mask
    }
}

/// The paper's motivating failure scenario (§1.2.2): a bidirectional grid
/// in which individual *directions* of links fail independently with
/// probability `p` ("bidirectional networks with in-port or out-port
/// shutdown failures"). Directions are re-instated as needed to keep the
/// network strongly connected: failed directions are retried with fresh
/// randomness until the survivor graph is strongly connected.
pub fn bidi_grid_faulty(w: usize, h: usize, p: f64, seed: u64) -> Topology {
    assert!(w * h >= 2);
    assert!((0.0..1.0).contains(&p));
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    // Undirected neighbour pairs of the grid.
    let mut pairs = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                pairs.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                pairs.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    for round in 0..64u64 {
        let mut rng =
            DetRng::seed_from_u64(seed.wrapping_add(round.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut b = TopologyBuilder::new(w * h, 4);
        for &(u, v) in &pairs {
            if !rng.random_bool(p) {
                b.connect_auto(u, v).expect("grid wiring");
            }
            if !rng.random_bool(p) {
                b.connect_auto(v, u).expect("grid wiring");
            }
        }
        let Ok(t) = b.build() else { continue };
        if is_strongly_connected(&t) {
            return t;
        }
    }
    // Fall back to the fault-free grid: always strongly connected.
    let mut b = TopologyBuilder::new(w * h, 4);
    for &(u, v) in &pairs {
        b.connect_auto(u, v).expect("grid wiring");
        b.connect_auto(v, u).expect("grid wiring");
    }
    b.build().expect("fault-free grid is valid")
}

/// The Lemma 5.1 lower-bound family: a full binary tree of height `h` with
/// bidirectional edges, plus a simple directed loop visiting every leaf in
/// the order given by `leaf_perm` (a permutation of `0..2^h`).
///
/// N = 2^(h+1) − 1, D ≤ 2h + 1, δ = 3. Every distinct leaf ordering yields
/// a distinct topology, which is what makes `G(N) ≥ N^{CN}` — the heart of
/// the Ω(N log N) bound (Theorem 5.1).
pub fn tree_loop(h: u32, leaf_perm: &[usize]) -> Topology {
    let leaves = 1usize << h;
    assert_eq!(
        leaf_perm.len(),
        leaves,
        "leaf_perm must order all 2^h leaves"
    );
    {
        let mut seen = vec![false; leaves];
        for &l in leaf_perm {
            assert!(l < leaves && !seen[l], "leaf_perm must be a permutation");
            seen[l] = true;
        }
    }
    let n = (1usize << (h + 1)) - 1;
    assert!(n >= 2, "height 0 tree has a single node; use h >= 1");
    // Heap indexing: node 0 is the tree root; children of i are 2i+1, 2i+2;
    // leaves occupy indices (2^h - 1)..(2^(h+1) - 1).
    let mut b = TopologyBuilder::new(n, 3);
    for i in 0..(1usize << h) - 1 {
        for c in [2 * i + 1, 2 * i + 2] {
            b.connect_auto(NodeId(i as u32), NodeId(c as u32))
                .expect("tree edge down");
            b.connect_auto(NodeId(c as u32), NodeId(i as u32))
                .expect("tree edge up");
        }
    }
    let first_leaf = (1usize << h) - 1;
    for w in 0..leaves {
        let u = first_leaf + leaf_perm[w];
        let v = first_leaf + leaf_perm[(w + 1) % leaves];
        if leaves == 1 {
            break; // single leaf: no loop needed (h = 0 is rejected above anyway)
        }
        b.connect_auto(NodeId(u as u32), NodeId(v as u32))
            .expect("leaf loop edge");
    }
    b.build().expect("tree_loop is a valid network")
}

/// `tree_loop` with a seeded random permutation — convenient for sweeps.
pub fn tree_loop_random(h: u32, seed: u64) -> Topology {
    let leaves = 1usize << h;
    let mut perm: Vec<usize> = (0..leaves).collect();
    let mut rng = DetRng::seed_from_u64(seed ^ 0x74726565); // "tree"
    rng.shuffle(&mut perm);
    tree_loop(h, &perm)
}

/// Kautz graph K(k, m): the de Bruijn variant without repeated symbols —
/// nodes are strings s₁…s_{m+1} over k+1 symbols with sᵢ ≠ sᵢ₊₁, and
/// u = s₁…s_{m+1} → s₂…s_{m+1}a for every a ≠ s_{m+1}. Self-loop-free by
/// construction, strongly connected, D = m + 1, out-degree exactly k —
/// the densest known bounded-degree/low-diameter family, a harder E2/E6
/// workload than de Bruijn.
pub fn kautz(k: usize, m: usize) -> Topology {
    assert!(k >= 2 && m >= 1);
    // enumerate nodes as (first symbol, sequence of "offsets" 1..=k):
    // a string maps to an integer in (k+1)·k^m.
    let n = (k + 1) * k.pow(m as u32);
    let decode = |mut x: usize| -> Vec<usize> {
        // reconstruct the symbol string of length m+1
        let first = x % (k + 1);
        x /= k + 1;
        let mut sym = vec![first];
        for _ in 0..m {
            let off = x % k + 1; // offset 1..=k avoids repetition
            x /= k;
            let prev = *sym.last().unwrap();
            sym.push((prev + off) % (k + 1));
        }
        sym
    };
    let encode = |sym: &[usize]| -> usize {
        let mut x = 0usize;
        for w in (1..sym.len()).rev() {
            let prev = sym[w - 1];
            let off = (sym[w] + k + 1 - prev) % (k + 1);
            debug_assert!(off >= 1);
            x = x * k + (off - 1);
        }
        x * (k + 1) + sym[0]
    };
    let mut b = TopologyBuilder::new(n, k as u8);
    for u in 0..n {
        let sym = decode(u);
        let last = *sym.last().unwrap();
        for a in 0..=k {
            if a == last {
                continue;
            }
            let mut next: Vec<usize> = sym[1..].to_vec();
            next.push(a);
            let v = encode(&next);
            debug_assert_ne!(u, v, "kautz graphs are self-loop-free");
            b.connect_auto(NodeId(u as u32), NodeId(v as u32))
                .expect("kautz wiring");
        }
    }
    b.build().expect("kautz is a valid network")
}

/// The dimensions [`hypercube_bidi`] accepts: δ = dims must be at least 2
/// (the model's bound) and stay a small constant.
pub const HYPERCUBE_DIMS: std::ops::RangeInclusive<u32> = 2..=7;

/// The sizes [`complete_bidi`] accepts: δ = n − 1 must be at least 2 (the
/// model's bound), and complete networks only make sense tiny.
pub const COMPLETE_NODES: std::ops::RangeInclusive<usize> = 3..=9;

/// Bidirectional hypercube Q_d: 2^d nodes, wires both ways across every
/// dimension. δ = d, D = d = log₂N. The classic HPC interconnect, included
/// as a "this is what your cluster fabric looks like" workload.
pub fn hypercube_bidi(dims: u32) -> Topology {
    assert!(
        HYPERCUBE_DIMS.contains(&dims),
        "dims must be in {HYPERCUBE_DIMS:?} (delta = dims)"
    );
    let n = 1usize << dims;
    let mut b = TopologyBuilder::new(n, dims as u8);
    for u in 0..n {
        for bit in 0..dims {
            let v = u ^ (1 << bit);
            if u < v {
                b.connect_auto(NodeId(u as u32), NodeId(v as u32))
                    .expect("cube wiring");
                b.connect_auto(NodeId(v as u32), NodeId(u as u32))
                    .expect("cube wiring");
            }
        }
    }
    b.build().expect("hypercube is a valid network")
}

/// Small complete bidirectional network (every ordered pair wired).
/// δ = n − 1; used in tests for dense adversarial cases.
pub fn complete_bidi(n: usize) -> Topology {
    assert!(
        COMPLETE_NODES.contains(&n),
        "n must be in {COMPLETE_NODES:?} (delta = n - 1)"
    );
    let mut b = TopologyBuilder::new(n, (n - 1) as u8);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                b.connect_auto(NodeId(u as u32), NodeId(v as u32))
                    .expect("complete wiring");
            }
        }
    }
    b.build().expect("complete network is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs_dist, diameter, is_strongly_connected};

    #[test]
    fn ring_shape() {
        let t = ring(6);
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_edges(), 6);
        assert!(is_strongly_connected(&t));
        assert_eq!(diameter(&t), 5);
        for u in t.node_ids() {
            assert_eq!(t.out_degree(u), 1);
            assert_eq!(t.in_degree(u), 1);
        }
    }

    #[test]
    fn line_bidi_distances() {
        let t = line_bidi(5);
        let d = bfs_dist(&t, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert!(is_strongly_connected(&t));
        assert_eq!(diameter(&t), 4);
    }

    #[test]
    fn torus_regular_and_connected() {
        let t = torus(4, 4);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_edges(), 32);
        assert!(is_strongly_connected(&t));
        for u in t.node_ids() {
            assert_eq!(t.out_degree(u), 2);
            assert_eq!(t.in_degree(u), 2);
        }
    }

    #[test]
    fn torus_single_row_is_ring() {
        let t = torus(5, 1);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(diameter(&t), 4);
    }

    #[test]
    fn debruijn_diameter_is_logarithmic() {
        let t = debruijn(2, 4); // 16 nodes
        assert_eq!(t.num_nodes(), 16);
        assert!(is_strongly_connected(&t));
        assert!(
            diameter(&t) <= 5,
            "D should be ~m = 4, got {}",
            diameter(&t)
        );
        // self-loops at 0 and k^m - 1 dropped:
        assert_eq!(t.out_degree(NodeId(0)), 1);
        assert_eq!(t.out_degree(NodeId(15)), 1);
    }

    #[test]
    fn random_sc_is_strongly_connected_many_seeds() {
        for seed in 0..30 {
            let t = random_sc(30, 3, seed);
            assert!(is_strongly_connected(&t), "seed {seed}");
            for u in t.node_ids() {
                assert!(t.out_degree(u) >= 1 && t.out_degree(u) <= 3);
                assert!(t.in_degree(u) >= 1 && t.in_degree(u) <= 3);
            }
        }
    }

    #[test]
    fn random_sc_is_deterministic() {
        let a = random_sc(50, 4, 7);
        let b = random_sc(50, 4, 7);
        assert_eq!(a, b);
        let c = random_sc(50, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_sc_density_close_to_delta() {
        let t = random_sc(200, 4, 1);
        let avg = t.num_edges() as f64 / 200.0;
        assert!(avg > 2.5, "expected density near delta = 4, got {avg}");
    }

    /// `(edges, pair hash, wiring hash)` of a topology: FNV-1a over the
    /// sorted edge list, once as bare `src -> dst` pairs and once with
    /// both port numbers, so a pin catches a changed port assignment
    /// even when the node pairs survive.
    fn fingerprint(t: &Topology) -> (usize, u64, u64) {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let (mut pairs, mut wiring) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for e in t.sorted_edges() {
            let (src, dst) = (e.src.0.to_le_bytes(), e.dst.0.to_le_bytes());
            fnv(&mut pairs, &src);
            fnv(&mut pairs, &dst);
            fnv(&mut wiring, &src);
            fnv(&mut wiring, &[e.src_port.0]);
            fnv(&mut wiring, &dst);
            fnv(&mut wiring, &[e.dst_port.0]);
        }
        (t.num_edges(), pairs, wiring)
    }

    /// Every `random_sc` network is pinned port for port: the generator's
    /// RNG stream and acceptance order are part of every golden file and
    /// tick count downstream. The values are the generator's output from
    /// before its attempt loop was optimised and must never move. Cases
    /// span δ = 2..40, one run that reaches its edge target early
    /// (n = 3) and runs that exhaust the attempt budget (all others,
    /// including n = 100,000).
    #[test]
    fn random_sc_output_is_pinned() {
        #[rustfmt::skip]
        let pins: [(usize, u8, u64, usize, u64, u64); 9] = [
            (2, 2, 0, 2, 0xb1d7_6322_1120_75d5, 0xe545_e1d3_88e4_af43),
            (3, 2, 5, 6, 0x6929_c784_dfdb_6da5, 0xb9df_be00_eb3d_de8b),
            (64, 2, 7, 125, 0x9935_1bf3_aefc_12bc, 0xf1c0_17dd_f751_77b0),
            (512, 3, 1, 1521, 0x2196_6c14_5617_f73d, 0x073b_c65c_b0e3_7f88),
            (1000, 4, 2, 3973, 0xa8b1_d2c9_ad58_d70b, 0xa7ae_1d83_20ae_e296),
            (5000, 5, 3, 24854, 0xe176_7b81_ce11_01ba, 0x3bf5_c445_f307_77d0),
            (300, 8, 11, 2396, 0x7920_a0b2_e5e1_b6ed, 0x747e_59ac_800b_7bd2),
            (20, 40, 1, 380, 0xd6fe_51f5_fc52_e145, 0x25e3_e2e1_8c31_aca9),
            (100_000, 3, 4, 296_471, 0x5041_9d8c_98b9_1d3e, 0x9023_e1df_2d6f_1a0c),
        ];
        for (n, delta, seed, edges, pairs, wiring) in pins {
            assert_eq!(
                fingerprint(&random_sc(n, delta, seed)),
                (edges, pairs, wiring),
                "random_sc({n}, {delta}, {seed})"
            );
        }
    }

    /// The benchmark's million-node graph (`random-sc:n=1000000,delta=3,
    /// seed=9`): 1,000,000 cycle edges plus 1,964,213 accepted extras.
    /// Release-only, so the unoptimised default `cargo test` stays quick.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn random_sc_million_node_benchmark_graph_is_pinned() {
        assert_eq!(
            fingerprint(&random_sc(1_000_000, 3, 9)),
            (2_964_213, 0xd94e_74f2_0e0c_19d4, 0x6a8f_421d_490b_f84e)
        );
    }

    /// Every registry family's example network, pinned port for port, so
    /// a change to the builder's port choice cannot move any family. The
    /// values are the output from before `connect_auto` stopped scanning
    /// slot rows and must never move.
    #[test]
    fn registry_example_wiring_is_pinned() {
        #[rustfmt::skip]
        let pins: [(&str, usize, u64, u64); 10] = [
            ("ring:16", 16, 0xb44e_bfe2_76dd_f3a5, 0x35fd_f4a2_f013_d145),
            ("line-bidi:16", 30, 0x9e45_9173_98d8_4475, 0x3311_5e00_4df6_865f),
            ("torus:4,4", 32, 0x37ca_cc51_f698_d425, 0xf15b_ccb7_ee9e_d3a5),
            ("debruijn:2,5", 62, 0xc2f0_8f73_c3a5_1a15, 0x1980_ba6d_2efb_3b37),
            ("kautz:2,3", 48, 0x8c22_50d9_dff2_3045, 0xa1b8_868e_3c8d_3bad),
            ("hypercube:4", 64, 0xbffd_f86f_d56a_53a5, 0x2b48_2ca7_465b_3ba5),
            ("complete:4", 12, 0xe906_8e8a_9c8a_9525, 0x6b25_1e6c_a7d9_bf51),
            ("random-sc:n=32,delta=3,seed=1", 95, 0xb943_f256_8094_57dd, 0x5c75_2883_75b5_5a7f),
            ("bidi-grid-faulty:w=4,h=4,p=0.2,seed=11", 41, 0x522e_6aa8_5df1_764b, 0x3c0a_8534_e8ce_503e),
            ("tree-loop:h=3,seed=7", 36, 0xfeb9_4846_1f52_5695, 0x08bd_e34c_a94b_f5c9),
        ];
        let specs = crate::spec::registry_examples();
        let names: Vec<String> = specs.iter().map(ToString::to_string).collect();
        assert_eq!(names, pins.map(|p| p.0), "one pin per registry family");
        for (spec, (name, edges, pairs, wiring)) in specs.iter().zip(pins) {
            assert_eq!(fingerprint(&spec.build()), (edges, pairs, wiring), "{name}");
        }
    }

    #[test]
    fn faulty_grid_strongly_connected() {
        for seed in 0..10 {
            let t = bidi_grid_faulty(5, 4, 0.2, seed);
            assert!(is_strongly_connected(&t), "seed {seed}");
            assert_eq!(t.num_nodes(), 20);
        }
    }

    #[test]
    fn faulty_grid_zero_p_is_full_grid() {
        let t = bidi_grid_faulty(3, 3, 0.0, 0);
        // 12 undirected grid edges, both directions each
        assert_eq!(t.num_edges(), 24);
    }

    #[test]
    fn tree_loop_shape() {
        let t = tree_loop(2, &[0, 1, 2, 3]);
        assert_eq!(t.num_nodes(), 7);
        // 6 tree edges * 2 directions + 4 loop edges
        assert_eq!(t.num_edges(), 16);
        assert!(is_strongly_connected(&t));
        assert!(diameter(&t) <= 5);
    }

    #[test]
    fn tree_loop_distinct_permutations_distinct_topologies() {
        let a = tree_loop(2, &[0, 1, 2, 3]);
        let b = tree_loop(2, &[0, 2, 1, 3]);
        assert_ne!(a.sorted_edges(), b.sorted_edges());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn tree_loop_rejects_bad_perm() {
        let _ = tree_loop(2, &[0, 1, 2, 2]);
    }

    #[test]
    fn tree_loop_random_deterministic() {
        assert_eq!(tree_loop_random(3, 5), tree_loop_random(3, 5));
    }

    #[test]
    fn kautz_shape() {
        let t = kautz(2, 2); // 12 nodes, out-degree 2
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.num_edges(), 24);
        assert!(is_strongly_connected(&t));
        assert_eq!(diameter(&t), 3); // D = m + 1
        for u in t.node_ids() {
            assert_eq!(t.out_degree(u), 2);
            assert_eq!(t.in_degree(u), 2);
        }
    }

    #[test]
    fn kautz_larger_instances_connected() {
        for (k, m) in [(2usize, 3usize), (3, 2)] {
            let t = kautz(k, m);
            assert_eq!(t.num_nodes(), (k + 1) * k.pow(m as u32));
            assert!(is_strongly_connected(&t), "kautz({k},{m})");
            assert!(diameter(&t) as usize <= m + 1);
        }
    }

    #[test]
    fn hypercube_shape() {
        let t = hypercube_bidi(4);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_edges(), 64);
        assert!(is_strongly_connected(&t));
        assert_eq!(diameter(&t), 4);
        for u in t.node_ids() {
            assert_eq!(t.out_degree(u), 4);
        }
    }

    #[test]
    fn complete_bidi_shape() {
        let t = complete_bidi(4);
        assert_eq!(t.num_edges(), 12);
        assert!(is_strongly_connected(&t));
        assert_eq!(diameter(&t), 1);
    }
}
