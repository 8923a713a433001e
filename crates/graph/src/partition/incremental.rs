//! Incremental dirty-boundary re-partitioning for dynamic graphs.
//!
//! The dynamic plane's `partition_timeline` historically re-ran the full
//! multilevel partitioner on **every** graph mutation — fine at 325
//! sensors, a wall at the 10⁵–10⁶-node city scale. Following DGC's
//! partitioning-by-chunks observation (dynamic partitions should be
//! *repaired* locally around the mutated region, not rebuilt), this module
//! maintains a partitioning **incrementally**:
//!
//! - [`SparseGraph`] — an undirected weighted adjacency-list graph that
//!   scales to millions of nodes (the dense [`Adjacency`] is O(n²));
//! - [`GraphDelta`] — one mutation batch: edge weight changes (including
//!   removals) plus node arrivals;
//! - [`IncrementalPartitioner`] — holds the current assignment plus
//!   incrementally-maintained cut state (per-node part-contact counts,
//!   per-part sizes, the global cut-neighbor count), restricts KL/FM
//!   refinement to the **dirty boundary region** (mutated endpoints plus
//!   their `halo_depth`-hop halo), prices every candidate move directly in
//!   [`HaloCostModel`] units, and falls back to a full from-scratch solve
//!   only when modeled halo bytes drift past [`IncrementalConfig::drift`]
//!   versus the last full solve;
//! - [`RepartitionPolicy`] — the consumer-facing knob
//!   (`pgt_index`'s `DynamicTrainConfig::repartition` selects it for the
//!   timeline `train_dynamic` builds with `partition_timeline_with`).
//!
//! Cut state is exact at all times: `cut_neighbors()` returns in O(1) the
//! same count `Partitioning::cut_neighbors` recomputes in O(E) — a
//! property-tested invariant.

use super::{balance_cap, HaloCostModel, Partitioning};
use crate::adjacency::Adjacency;
use std::collections::VecDeque;

/// An undirected weighted graph stored as adjacency lists — the sparse
/// substrate the incremental partitioner (and the city-scale benches)
/// operate on, where the dense [`Adjacency`] would cost O(n²) memory.
///
/// Each undirected edge `{u, v}` appears in both endpoints' lists with the
/// same weight; self-loops are rejected. Weights are non-negative, and a
/// weight of exactly `0.0` means "no edge".
#[derive(Debug, Clone, Default)]
pub struct SparseGraph {
    adj: Vec<Vec<(usize, f32)>>,
    edges: usize,
}

impl SparseGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        SparseGraph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Sparsify a dense adjacency: the undirected weight of `{i, j}` is
    /// `w(i,j) + w(j,i)` (both directions collapse, exactly as the
    /// multilevel coarsener's `CoarseGraph` does); self-loops are dropped.
    pub fn from_adjacency(a: &Adjacency) -> Self {
        let n = a.num_nodes();
        let mut g = SparseGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = a.weight(i, j) + a.weight(j, i);
                if w > 0.0 {
                    g.set_edge(i, j, w);
                }
            }
        }
        g
    }

    /// Build from an undirected edge list; duplicate `{u, v}` entries sum.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f32)]) -> Self {
        let mut g = SparseGraph::new(n);
        for &(u, v, w) in edges {
            let prev = g.edge_weight(u, v);
            g.set_edge(u, v, prev + w);
        }
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges with non-zero weight.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The `(neighbor, weight)` list of node `u`.
    pub fn neighbors(&self, u: usize) -> &[(usize, f32)] {
        &self.adj[u]
    }

    /// Degree (number of incident undirected edges) of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The weight of undirected edge `{u, v}` (0.0 when absent).
    pub fn edge_weight(&self, u: usize, v: usize) -> f32 {
        self.adj[u]
            .iter()
            .find(|&&(x, _)| x == v)
            .map_or(0.0, |&(_, w)| w)
    }

    /// Set the weight of undirected edge `{u, v}` (`0.0` removes it) and
    /// return the previous weight. Weights must be finite and `>= 0`.
    pub fn set_edge(&mut self, u: usize, v: usize, w: f32) -> f32 {
        assert!(u != v, "self-loops are not supported");
        assert!(
            w.is_finite() && w >= 0.0,
            "edge weight must be finite and non-negative"
        );
        let prev = self.half_set(u, v, w);
        let back = self.half_set(v, u, w);
        debug_assert_eq!(prev.to_bits(), back.to_bits(), "lists out of sync");
        if prev == 0.0 && w > 0.0 {
            self.edges += 1;
        } else if prev > 0.0 && w == 0.0 {
            self.edges -= 1;
        }
        prev
    }

    /// Append `count` isolated nodes (ids `num_nodes()..`).
    pub fn add_nodes(&mut self, count: usize) {
        self.adj.resize_with(self.adj.len() + count, Vec::new);
    }

    /// Densify into an [`Adjacency`] carrying the undirected weight in
    /// both directions — O(n²); intended for tests and small graphs only.
    pub fn to_adjacency(&self) -> Adjacency {
        let n = self.num_nodes();
        let mut w = vec![0.0f32; n * n];
        for (u, list) in self.adj.iter().enumerate() {
            for &(v, weight) in list {
                w[u * n + v] = weight;
            }
        }
        Adjacency::from_dense(n, w)
    }

    /// Update one endpoint's list; returns the previous weight.
    fn half_set(&mut self, u: usize, v: usize, w: f32) -> f32 {
        let list = &mut self.adj[u];
        match list.iter().position(|&(x, _)| x == v) {
            Some(i) => {
                let prev = list[i].1;
                if w > 0.0 {
                    list[i].1 = w;
                } else {
                    list.swap_remove(i);
                }
                prev
            }
            None => {
                if w > 0.0 {
                    list.push((v, w));
                }
                0.0
            }
        }
    }
}

/// One batch of graph mutations: node arrivals plus undirected edge
/// weight updates. New nodes take ids `num_nodes()..num_nodes() +
/// added_nodes` and may be referenced by this delta's own edges; a weight
/// of `0.0` removes the edge. Node departures are modeled as isolating a
/// node (removing all its incident edges).
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Nodes appended to the graph by this delta.
    pub added_nodes: usize,
    /// Undirected edge updates `(u, v, new_weight)`; `0.0` removes.
    pub edges: Vec<(usize, usize, f32)>,
}

impl GraphDelta {
    /// True when the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.added_nodes == 0 && self.edges.is_empty()
    }

    /// The edge delta between two same-sized dense adjacencies, in the
    /// undirected `w(i,j) + w(j,i)` convention of
    /// [`SparseGraph::from_adjacency`] — how `partition_timeline` turns a
    /// pair of consecutive snapshots into a repairable mutation.
    pub fn between(prev: &Adjacency, cur: &Adjacency) -> GraphDelta {
        let n = prev.num_nodes();
        assert_eq!(n, cur.num_nodes(), "adjacencies must match in size");
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let wp = prev.weight(i, j) + prev.weight(j, i);
                let wc = cur.weight(i, j) + cur.weight(j, i);
                if wp != wc {
                    edges.push((i, j, wc));
                }
            }
        }
        GraphDelta {
            added_nodes: 0,
            edges,
        }
    }
}

/// How a dynamic-graph consumer maintains its partition across mutations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepartitionPolicy {
    /// Re-run the configured full partitioner on every mutation — the
    /// legacy (bit-identical) path.
    Full,
    /// Repair the previous partition around the dirty boundary region,
    /// falling back to a full rebuild only on quality drift.
    Incremental {
        /// Fallback threshold: rebuild from scratch once modeled halo
        /// bytes exceed `(1 + drift) ×` the last full solve's.
        drift: f64,
        /// Hops of halo around mutated endpoints included in the
        /// refinement's active set.
        halo_depth: usize,
    },
}

impl RepartitionPolicy {
    /// The default incremental policy (10% drift, 2-hop dirty halo).
    pub fn incremental() -> Self {
        RepartitionPolicy::Incremental {
            drift: 0.10,
            halo_depth: 2,
        }
    }
}

impl Default for RepartitionPolicy {
    /// The legacy full-rebuild path, so existing consumers are unchanged.
    fn default() -> Self {
        RepartitionPolicy::Full
    }
}

/// Knobs of the [`IncrementalPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalConfig {
    /// Rebuild from scratch once modeled halo bytes exceed
    /// `(1 + drift) ×` the last full solve's halo bytes.
    pub drift: f64,
    /// Hops of halo around mutated endpoints swept into the dirty
    /// refinement region.
    pub halo_depth: usize,
    /// Balance tolerance: no part may exceed `balance × ⌈n/k⌉` nodes —
    /// the same cap [`super::MultilevelConfig::balance`] enforces.
    pub balance: f64,
    /// Refinement passes over the dirty region per delta (and over the
    /// boundary per full solve).
    pub refine_passes: usize,
    /// The halo cost model every candidate move is priced by.
    pub cost: HaloCostModel,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            drift: 0.10,
            halo_depth: 2,
            balance: 1.15,
            refine_passes: 4,
            cost: HaloCostModel::default(),
        }
    }
}

impl IncrementalConfig {
    /// Defaults with the cost model tuned to a forecast `horizon` over
    /// `features` f32 features per node.
    pub fn for_horizon(horizon: usize, features: usize) -> Self {
        IncrementalConfig {
            cost: HaloCostModel::new(horizon.max(1), features.max(1)),
            ..Default::default()
        }
    }

    /// Defaults overlaid with a [`RepartitionPolicy::Incremental`]'s
    /// knobs (panics on [`RepartitionPolicy::Full`] — there is nothing
    /// incremental to configure).
    pub fn from_policy(policy: RepartitionPolicy, cost: HaloCostModel) -> Self {
        match policy {
            RepartitionPolicy::Incremental { drift, halo_depth } => IncrementalConfig {
                drift,
                halo_depth,
                cost,
                ..Default::default()
            },
            RepartitionPolicy::Full => {
                panic!("RepartitionPolicy::Full has no incremental configuration")
            }
        }
    }
}

/// What one [`IncrementalPartitioner::apply_delta`] call did.
#[derive(Debug, Clone, Copy)]
pub struct RepairStats {
    /// Nodes in the dirty refinement region (mutated endpoints + halo).
    pub dirty_nodes: usize,
    /// Boundary moves the restricted refinement applied.
    pub moves: usize,
    /// Whether quality drift forced a full from-scratch rebuild.
    pub rebuilt: bool,
    /// Modeled halo bytes after the repair (or rebuild).
    pub halo_bytes: u64,
}

/// A partitioning maintained incrementally across graph mutations.
///
/// Holds the current graph and assignment plus exact cut state — per-node
/// *part contact* counts (how many of a node's neighbors live in each
/// part), per-part sizes, and the global cut-neighbor count — all updated
/// in O(degree) per mutation, so [`IncrementalPartitioner::halo_bytes`]
/// is O(1) where `Partitioning::cut_neighbors` rescans every edge.
///
/// ```
/// use st_graph::partition::incremental::{
///     GraphDelta, IncrementalConfig, IncrementalPartitioner, SparseGraph,
/// };
///
/// // A 6-node path split in half, repaired after an edge arrives. The
/// // new edge closes a cycle, so the cut genuinely doubles — a generous
/// // drift keeps the repair local instead of falling back to a rebuild.
/// let g = SparseGraph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
/// let cfg = IncrementalConfig { drift: 2.0, ..IncrementalConfig::default() };
/// let mut inc = IncrementalPartitioner::partition_fresh(g, 2, cfg);
/// let before = inc.halo_bytes();
/// let stats = inc.apply_delta(&GraphDelta { added_nodes: 0, edges: vec![(0, 5, 2.0)] });
/// assert!(!stats.rebuilt && stats.halo_bytes >= before);
/// assert_eq!(inc.cut_neighbors(), inc.partitioning().cut_neighbors(&inc.graph().to_adjacency()));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalPartitioner {
    graph: SparseGraph,
    cfg: IncrementalConfig,
    k: usize,
    assignment: Vec<usize>,
    part_sizes: Vec<usize>,
    /// Per node: `(part, count)` of its neighbors by part (zero counts are
    /// dropped), the structure every cut/gain query reads.
    contacts: Vec<Vec<(usize, u32)>>,
    /// Global cut-neighbor count: `Σ_v |{foreign parts v touches}|`.
    cut: usize,
    /// Halo bytes of the last full solve — the drift-fallback baseline.
    baseline_halo: u64,
}

impl IncrementalPartitioner {
    /// Adopt an existing partitioning (e.g. a dense multilevel solve of
    /// the same graph) as the maintained state; the drift baseline is the
    /// seeded partitioning's own halo bytes.
    pub fn seed(graph: SparseGraph, partitioning: &Partitioning, cfg: IncrementalConfig) -> Self {
        assert_eq!(
            graph.num_nodes(),
            partitioning.num_nodes(),
            "partitioning must cover the graph"
        );
        let mut s = Self::from_assignment(
            graph,
            partitioning.assignment().to_vec(),
            partitioning.num_parts(),
            cfg,
        );
        s.baseline_halo = s.halo_bytes();
        s
    }

    /// Full from-scratch solve on the sparse graph: farthest-first seeded
    /// region growing under the balance cap, then halo-priced boundary
    /// refinement — the rebuild path the drift fallback takes, and the
    /// "from-scratch" baseline the `ablation_dynamic` bench compares
    /// repair quality against. Deterministic (no RNG).
    pub fn partition_fresh(graph: SparseGraph, k: usize, cfg: IncrementalConfig) -> Self {
        let n = graph.num_nodes();
        assert!(k > 0, "need at least one part");
        if k >= n || k == 1 {
            // One node per part (parts n..k empty) or everything in part 0
            // — nothing to refine either way.
            let assignment = if k == 1 { vec![0; n] } else { (0..n).collect() };
            let mut s = Self::from_assignment(graph, assignment, k, cfg);
            s.baseline_halo = s.halo_bytes();
            return s;
        }
        let cap = balance_cap(n, k, cfg.balance);
        let assignment = grow_regions_sparse(&graph, k, cap);
        let mut s = Self::from_assignment(graph, assignment, k, cfg);
        let all: Vec<usize> = (0..n).collect();
        s.refine(&all, cap);
        s.baseline_halo = s.halo_bytes();
        s
    }

    /// Apply one mutation batch: update the graph and cut state, place
    /// arriving nodes, refine the dirty boundary region, and fall back to
    /// a full rebuild if modeled halo bytes drifted past the threshold.
    ///
    /// An empty delta is a guaranteed no-op: the assignment is returned
    /// bit-identical (property-tested).
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> RepairStats {
        let prev_nodes = self.graph.num_nodes();
        // Arrivals start in the lightest part so this delta's own edges
        // have well-defined endpoints; dirty refinement re-homes them.
        if delta.added_nodes > 0 {
            self.graph.add_nodes(delta.added_nodes);
            for _ in 0..delta.added_nodes {
                self.contacts.push(Vec::new());
                let p = (0..self.k).min_by_key(|&p| self.part_sizes[p]).unwrap();
                self.assignment.push(p);
                self.part_sizes[p] += 1;
            }
        }
        let mut dirty: Vec<usize> = (prev_nodes..self.graph.num_nodes()).collect();
        for &(u, v, w) in &delta.edges {
            self.apply_edge(u, v, w);
            dirty.push(u);
            dirty.push(v);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let active = self.expand_halo(&dirty);
        let cap = balance_cap(self.graph.num_nodes(), self.k, self.cfg.balance);
        let moves = self.refine(&active, cap);
        let mut rebuilt = false;
        if self.halo_bytes() as f64 > (1.0 + self.cfg.drift) * self.baseline_halo as f64 {
            let graph = std::mem::take(&mut self.graph);
            *self = Self::partition_fresh(graph, self.k, self.cfg);
            rebuilt = true;
        }
        RepairStats {
            dirty_nodes: active.len(),
            moves,
            rebuilt,
            halo_bytes: self.halo_bytes(),
        }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &SparseGraph {
        &self.graph
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// The current assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Sizes of every part (maintained, O(k) to clone).
    pub fn part_sizes(&self) -> Vec<usize> {
        self.part_sizes.clone()
    }

    /// Load imbalance: `max part size / (n / k)` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = *self.part_sizes.iter().max().unwrap_or(&0) as f64;
        max / (self.assignment.len() as f64 / self.k as f64)
    }

    /// The current cut-neighbor count — O(1), maintained incrementally;
    /// equals `Partitioning::cut_neighbors` recomputed from scratch.
    pub fn cut_neighbors(&self) -> usize {
        self.cut
    }

    /// Modeled halo bytes of the current partitioning — O(1).
    pub fn halo_bytes(&self) -> u64 {
        self.cut as u64 * self.cfg.cost.reads_per_cut_neighbor() * self.cfg.cost.row_bytes
    }

    /// Halo bytes of the last full solve (the drift-fallback baseline).
    pub fn baseline_halo_bytes(&self) -> u64 {
        self.baseline_halo
    }

    /// The configuration in force.
    pub fn config(&self) -> &IncrementalConfig {
        &self.cfg
    }

    /// Snapshot the current assignment as a [`Partitioning`].
    pub fn partitioning(&self) -> Partitioning {
        Partitioning::from_assignment(self.assignment.clone(), self.k)
    }

    // --- internals -----------------------------------------------------

    /// Build exact cut state for an assignment in one O(E) sweep.
    fn from_assignment(
        graph: SparseGraph,
        assignment: Vec<usize>,
        k: usize,
        cfg: IncrementalConfig,
    ) -> Self {
        assert!(
            assignment.iter().all(|&p| p < k),
            "assignment references a part >= k"
        );
        let n = graph.num_nodes();
        let mut part_sizes = vec![0usize; k];
        for &p in &assignment {
            part_sizes[p] += 1;
        }
        let mut contacts: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for (u, c) in contacts.iter_mut().enumerate() {
            for &(v, _) in graph.neighbors(u) {
                bump(c, assignment[v], 1);
            }
        }
        let cut = contacts
            .iter()
            .zip(assignment.iter())
            .map(|(c, &own)| c.iter().filter(|&&(p, _)| p != own).count())
            .sum();
        IncrementalPartitioner {
            graph,
            cfg,
            k,
            assignment,
            part_sizes,
            contacts,
            cut,
            baseline_halo: 0,
        }
    }

    /// Distinct parts other than `own` that `u` touches.
    fn foreign_contacts(&self, u: usize, own: usize) -> usize {
        self.contacts[u].iter().filter(|&&(p, _)| p != own).count()
    }

    /// Neighbors of `u` currently in part `p`.
    fn contact_count(&self, u: usize, p: usize) -> u32 {
        self.contacts[u]
            .iter()
            .find(|&&(q, _)| q == p)
            .map_or(0, |&(_, c)| c)
    }

    /// Update one edge's weight, keeping contacts and the cut count exact.
    fn apply_edge(&mut self, u: usize, v: usize, w: f32) {
        let prev = self.graph.set_edge(u, v, w);
        let existed = prev > 0.0;
        let exists = w > 0.0;
        if existed == exists {
            return; // weight-only change: contact counts are unweighted
        }
        let pu = self.assignment[u];
        let pv = self.assignment[v];
        if exists {
            if bump(&mut self.contacts[u], pv, 1) == 1 && pv != pu {
                self.cut += 1;
            }
            if bump(&mut self.contacts[v], pu, 1) == 1 && pu != pv {
                self.cut += 1;
            }
        } else {
            if bump(&mut self.contacts[u], pv, -1) == 0 && pv != pu {
                self.cut -= 1;
            }
            if bump(&mut self.contacts[v], pu, -1) == 0 && pu != pv {
                self.cut -= 1;
            }
        }
    }

    /// The cut-neighbor reduction of moving `u` to part `to` (positive =
    /// fewer halo replicas), priced without mutating any state.
    fn halo_gain(&self, u: usize, to: usize) -> i64 {
        let from = self.assignment[u];
        debug_assert_ne!(from, to);
        // u's own replicas change with its notion of "foreign"...
        let mut delta = self.foreign_contacts(u, to) as i64 - self.foreign_contacts(u, from) as i64;
        // ...and each neighbor gains/loses a contact in `to`/`from`.
        for &(v, _) in self.graph.neighbors(u) {
            let pv = self.assignment[v];
            if self.contact_count(v, from) == 1 && from != pv {
                delta -= 1;
            }
            if self.contact_count(v, to) == 0 && to != pv {
                delta += 1;
            }
        }
        -delta
    }

    /// Move `u` to part `to`, updating contacts, sizes, and the cut count.
    fn move_node(&mut self, u: usize, to: usize) {
        let from = self.assignment[u];
        debug_assert_ne!(from, to);
        self.cut -= self.foreign_contacts(u, from);
        self.cut += self.foreign_contacts(u, to);
        self.assignment[u] = to;
        self.part_sizes[from] -= 1;
        self.part_sizes[to] += 1;
        let IncrementalPartitioner {
            graph,
            contacts,
            assignment,
            cut,
            ..
        } = self;
        for &(v, _) in graph.neighbors(u) {
            let pv = assignment[v];
            if bump(&mut contacts[v], from, -1) == 0 && from != pv {
                *cut -= 1;
            }
            if bump(&mut contacts[v], to, 1) == 1 && to != pv {
                *cut += 1;
            }
        }
    }

    /// Mutated endpoints plus their `halo_depth`-hop halo, ascending.
    fn expand_halo(&self, dirty: &[usize]) -> Vec<usize> {
        if dirty.is_empty() || self.cfg.halo_depth == 0 {
            return dirty.to_vec();
        }
        let n = self.graph.num_nodes();
        let mut level = vec![u8::MAX; n];
        let mut q: VecDeque<usize> = VecDeque::new();
        for &d in dirty {
            level[d] = 0;
            q.push_back(d);
        }
        let depth = self.cfg.halo_depth.min(u8::MAX as usize - 1) as u8;
        let mut out = dirty.to_vec();
        while let Some(u) = q.pop_front() {
            if level[u] >= depth {
                continue;
            }
            for &(v, _) in self.graph.neighbors(u) {
                if level[v] == u8::MAX {
                    level[v] = level[u] + 1;
                    out.push(v);
                    q.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Greedy KL/FM passes restricted to `active`: each node may move to a
    /// contacted part of strictly positive halo gain, subject to the
    /// balance cap and the no-empty-part rule. The integer cut-neighbor
    /// count strictly decreases with every move, so passes terminate.
    fn refine(&mut self, active: &[usize], cap: usize) -> usize {
        let mut total = 0usize;
        for _ in 0..self.cfg.refine_passes.max(1) {
            let mut moved = 0usize;
            for &u in active {
                let from = self.assignment[u];
                if self.part_sizes[from] <= 1 || self.foreign_contacts(u, from) == 0 {
                    continue;
                }
                let mut best: Option<(i64, usize)> = None;
                for i in 0..self.contacts[u].len() {
                    let p = self.contacts[u][i].0;
                    if p == from || self.part_sizes[p] + 1 > cap {
                        continue;
                    }
                    let g = self.halo_gain(u, p);
                    let better = match best {
                        None => g > 0,
                        Some((bg, bp)) => g > bg || (g == bg && p < bp),
                    };
                    if g > 0 && better {
                        best = Some((g, p));
                    }
                }
                if let Some((_, to)) = best {
                    self.move_node(u, to);
                    moved += 1;
                }
            }
            total += moved;
            if moved == 0 {
                break;
            }
        }
        total
    }
}

/// Adjust the `(part, count)` entry for `p` by `delta` and return the
/// resulting count; zero-count entries are dropped.
fn bump(contacts: &mut Vec<(usize, u32)>, p: usize, delta: i32) -> u32 {
    match contacts.iter().position(|&(q, _)| q == p) {
        Some(i) => {
            let c = (contacts[i].1 as i64 + delta as i64).max(0) as u32;
            if c == 0 {
                contacts.swap_remove(i);
            } else {
                contacts[i].1 = c;
            }
            c
        }
        None => {
            if delta > 0 {
                contacts.push((p, delta as u32));
                delta as u32
            } else {
                0
            }
        }
    }
}

/// Farthest-first seeded region growing over the sparse graph under a
/// balance cap — the sparse analogue of `Partitioning::greedy_bfs`, with
/// stranded nodes falling back to the smallest part. Deterministic.
fn grow_regions_sparse(g: &SparseGraph, k: usize, cap: usize) -> Vec<usize> {
    let n = g.num_nodes();
    let seeds = farthest_first_sparse(g, k);
    let mut assignment = vec![usize::MAX; n];
    let mut sizes = vec![0usize; k];
    let mut frontiers: Vec<VecDeque<usize>> = seeds.iter().map(|&s| VecDeque::from([s])).collect();
    for (p, &s) in seeds.iter().enumerate() {
        assignment[s] = p;
        sizes[p] = 1;
    }
    let mut progress = true;
    while progress {
        progress = false;
        for p in 0..k {
            if sizes[p] >= cap {
                continue;
            }
            while let Some(u) = frontiers[p].pop_front() {
                let mut claimed = false;
                for &(v, _) in g.neighbors(u) {
                    if assignment[v] == usize::MAX {
                        assignment[v] = p;
                        sizes[p] += 1;
                        frontiers[p].push_back(v);
                        claimed = true;
                        progress = true;
                        if sizes[p] >= cap {
                            break;
                        }
                    }
                }
                if claimed {
                    frontiers[p].push_back(u);
                    break;
                }
            }
        }
    }
    for a in assignment.iter_mut() {
        if *a == usize::MAX {
            let p = (0..k).min_by_key(|&p| sizes[p]).unwrap();
            *a = p;
            sizes[p] += 1;
        }
    }
    assignment
}

/// Greedy farthest-first seed spreading over hop distance (sparse BFS);
/// unreachable nodes rank farthest so every component gets a seed first.
fn farthest_first_sparse(g: &SparseGraph, k: usize) -> Vec<usize> {
    let n = g.num_nodes();
    let mut seeds = vec![0usize];
    let mut dist = bfs_sparse(g, 0);
    while seeds.len() < k.min(n) {
        let next = (0..n)
            .filter(|i| !seeds.contains(i))
            .max_by_key(|&i| dist[i])
            .expect("k <= n leaves a candidate");
        seeds.push(next);
        let d2 = bfs_sparse(g, next);
        for i in 0..n {
            dist[i] = dist[i].min(d2[i]);
        }
    }
    seeds
}

fn bfs_sparse(g: &SparseGraph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    dist[src] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &(v, _) in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{city_grid, random_geometric};

    fn path(n: usize) -> SparseGraph {
        let edges: Vec<(usize, usize, f32)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        SparseGraph::from_edges(n, &edges)
    }

    #[test]
    fn sparse_graph_edge_bookkeeping() {
        let mut g = SparseGraph::new(4);
        assert_eq!(g.set_edge(0, 1, 2.0), 0.0);
        assert_eq!(g.set_edge(1, 0, 3.0), 2.0, "undirected: same edge");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), 3.0);
        assert_eq!(g.set_edge(0, 1, 0.0), 3.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        g.add_nodes(2);
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn from_adjacency_matches_dense_neighbors() {
        let net = random_geometric(24, 8.0, 3);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        for u in 0..24 {
            let dense: Vec<usize> = (0..24)
                .filter(|&v| {
                    v != u && (net.adjacency.weight(u, v) > 0.0 || net.adjacency.weight(v, u) > 0.0)
                })
                .collect();
            let mut sparse: Vec<usize> = g.neighbors(u).iter().map(|&(v, _)| v).collect();
            sparse.sort_unstable();
            assert_eq!(sparse, dense, "node {u}");
        }
    }

    #[test]
    fn cut_state_is_exact_after_seeding() {
        let net = city_grid(5, 6, 7);
        let p = Partitioning::multilevel(&net.adjacency, 3);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        assert_eq!(inc.cut_neighbors(), p.cut_neighbors(&net.adjacency));
        assert_eq!(inc.part_sizes(), p.part_sizes());
    }

    #[test]
    fn empty_delta_is_a_bit_identical_noop() {
        let net = city_grid(4, 5, 9);
        let p = Partitioning::multilevel(&net.adjacency, 2);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let mut inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        let before = inc.assignment().to_vec();
        let stats = inc.apply_delta(&GraphDelta::default());
        assert_eq!(inc.assignment(), &before[..]);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.dirty_nodes, 0);
        assert!(!stats.rebuilt);
    }

    #[test]
    fn arrivals_are_rehomed_next_to_their_neighbors() {
        // Two 4-cliques, parts = components. A new node attached to the
        // second clique must end up in the second clique's part.
        let mut edges = Vec::new();
        for a in 0..4usize {
            for b in (a + 1)..4 {
                edges.push((a, b, 1.0));
                edges.push((a + 4, b + 4, 1.0));
            }
        }
        let g = SparseGraph::from_edges(8, &edges);
        let p = Partitioning::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let mut inc = IncrementalPartitioner::seed(g, &p, IncrementalConfig::default());
        assert_eq!(inc.cut_neighbors(), 0);
        let stats = inc.apply_delta(&GraphDelta {
            added_nodes: 1,
            edges: vec![(8, 4, 1.0), (8, 5, 1.0)],
        });
        assert_eq!(inc.assignment()[8], 1, "arrival joins its neighbors");
        assert_eq!(inc.cut_neighbors(), 0, "repair restores a clean cut");
        assert!(!stats.rebuilt);
    }

    #[test]
    fn quality_drift_triggers_a_full_rebuild() {
        // Start from a pathological partitioning (odd/even stripes over a
        // path) with zero drift tolerance: any mutation's repair cannot
        // reach the baseline recorded at seed time... so force the
        // baseline low by seeding fresh, then wire the graph adversarially
        // until halo blows past (1 + drift) x baseline.
        let g = path(24);
        let mut inc = IncrementalPartitioner::partition_fresh(
            g,
            2,
            IncrementalConfig {
                drift: 0.0,
                halo_depth: 0, // cripple repair so drift must trigger
                ..Default::default()
            },
        );
        let baseline = inc.baseline_halo_bytes();
        assert!(baseline > 0);
        // Cross-wire far ends: halo strictly grows, repair (depth 0 halo,
        // endpoints only) cannot fully recover, fallback must fire
        // eventually.
        let mut rebuilt = false;
        for i in 0..8 {
            let stats = inc.apply_delta(&GraphDelta {
                added_nodes: 0,
                edges: vec![(i, 23 - i, 1.0)],
            });
            rebuilt |= stats.rebuilt;
        }
        assert!(rebuilt, "drift fallback never fired");
        assert_eq!(
            inc.baseline_halo_bytes(),
            inc.halo_bytes(),
            "rebuild resets the baseline"
        );
    }

    #[test]
    fn fresh_solve_is_balanced_and_covers() {
        let net = city_grid(8, 8, 5);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        for k in [2usize, 4, 7] {
            let inc =
                IncrementalPartitioner::partition_fresh(g.clone(), k, IncrementalConfig::default());
            let sizes = inc.part_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 64, "k={k}");
            assert!(sizes.iter().all(|&s| s > 0), "k={k}: {sizes:?}");
            let cap = balance_cap(64, k, inc.config().balance);
            assert!(sizes.iter().all(|&s| s <= cap), "k={k}: {sizes:?}");
        }
        // Degenerate shapes.
        let one =
            IncrementalPartitioner::partition_fresh(g.clone(), 1, IncrementalConfig::default());
        assert_eq!(one.cut_neighbors(), 0);
        let many = IncrementalPartitioner::partition_fresh(g, 100, IncrementalConfig::default());
        assert_eq!(many.part_sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn edge_churn_keeps_cut_state_exact() {
        let net = random_geometric(30, 9.0, 11);
        let g = SparseGraph::from_adjacency(&net.adjacency);
        let mut inc = IncrementalPartitioner::partition_fresh(g, 3, IncrementalConfig::default());
        // A handful of removals, weight changes, and insertions.
        let deltas = [
            GraphDelta {
                added_nodes: 0,
                edges: vec![(0, 7, 1.5), (3, 21, 0.0), (5, 29, 0.4)],
            },
            GraphDelta {
                added_nodes: 1,
                edges: vec![(30, 2, 1.0), (30, 14, 1.0), (0, 7, 0.0)],
            },
        ];
        for d in &deltas {
            inc.apply_delta(d);
            let recomputed = inc
                .partitioning()
                .cut_neighbors(&inc.graph().to_adjacency());
            assert_eq!(inc.cut_neighbors(), recomputed);
        }
    }

    #[test]
    fn delta_between_adjacencies_roundtrips() {
        let a = random_geometric(16, 6.0, 2).adjacency;
        let mut w = a.weights().to_vec();
        w[3 * 16 + 5] = 9.0; // mutate one directed edge
        w[7 * 16 + 1] = 0.0;
        w[16 + 7] = 0.0;
        let b = Adjacency::from_dense(16, w);
        let d = GraphDelta::between(&a, &b);
        let mut g = SparseGraph::from_adjacency(&a);
        for &(u, v, wt) in &d.edges {
            g.set_edge(u, v, wt);
        }
        let target = SparseGraph::from_adjacency(&b);
        for u in 0..16 {
            let mut got: Vec<(usize, u32)> = g
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            let mut want: Vec<(usize, u32)> = target
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "node {u}");
        }
    }
}
