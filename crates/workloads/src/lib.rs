//! # milpjoin-workloads — random join query generation
//!
//! Generates the randomized workloads used in the paper's evaluation (§7.1),
//! following the method of Steinbrunn, Moerkotte & Kemper ("Heuristic and
//! randomized optimization for the join ordering problem", VLDBJ 1997),
//! which the paper adopts: queries of a given size with chain, cycle, or
//! star join-graph structure, random table cardinalities, and random
//! predicate selectivities. Cross products are permitted during
//! optimization, which the generator does not need to model — it only
//! determines which predicates exist.
//!
//! Cardinalities are drawn log-uniformly from `[10, 100_000]` and
//! selectivities log-uniformly from `[0.0001, 1.0]` by default, both
//! configurable via [`WorkloadSpec`].
//!
//! ```
//! use milpjoin_workloads::{Topology, WorkloadSpec};
//! let spec = WorkloadSpec::new(Topology::Star, 10);
//! let (catalog, query) = spec.generate(42);
//! assert_eq!(query.num_tables(), 10);
//! assert_eq!(query.num_predicates(), 9);
//! query.validate(&catalog).unwrap();
//! ```

use milpjoin_qopt::{Catalog, GraphShape, Predicate, Query, TableId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Join graph topologies from Steinbrunn et al. (chain, cycle, star) plus
/// clique as a stress shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    Chain,
    Cycle,
    Star,
    Clique,
}

impl Topology {
    pub fn name(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Cycle => "cycle",
            Topology::Star => "star",
            Topology::Clique => "clique",
        }
    }

    /// The three topologies evaluated in the paper's Figure 2.
    pub const PAPER: [Topology; 3] = [Topology::Chain, Topology::Cycle, Topology::Star];

    /// Edges (as local position pairs) for `n` tables.
    pub fn edges(self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Topology::Chain => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Topology::Cycle => {
                let mut e: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
                if n > 2 {
                    e.push((n - 1, 0));
                }
                e
            }
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::Clique => {
                let mut e = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in i + 1..n {
                        e.push((i, j));
                    }
                }
                e
            }
        }
    }

    pub fn expected_shape(self, n: usize) -> GraphShape {
        match self {
            _ if n < 3 => GraphShape::Chain,
            // A 3-cycle is a triangle (clique); a 3-star is a path (chain).
            Topology::Cycle if n == 3 => GraphShape::Clique,
            Topology::Star if n == 3 => GraphShape::Chain,
            Topology::Chain => GraphShape::Chain,
            Topology::Cycle => GraphShape::Cycle,
            Topology::Star => GraphShape::Star,
            Topology::Clique => GraphShape::Clique,
        }
    }
}

/// Parameters of a random query workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub topology: Topology,
    pub num_tables: usize,
    /// Table cardinalities are drawn log-uniformly from this range.
    pub cardinality_range: (f64, f64),
    /// Predicate selectivities are drawn log-uniformly from this range.
    pub selectivity_range: (f64, f64),
}

impl WorkloadSpec {
    pub fn new(topology: Topology, num_tables: usize) -> Self {
        WorkloadSpec {
            topology,
            num_tables,
            cardinality_range: (10.0, 100_000.0),
            selectivity_range: (1e-4, 1.0),
        }
    }

    /// Builder-style setter for the cardinality range.
    pub fn cardinalities(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo >= 1.0 && hi >= lo);
        self.cardinality_range = (lo, hi);
        self
    }

    /// Builder-style setter for the selectivity range.
    pub fn selectivities(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && hi >= lo && hi <= 1.0);
        self.selectivity_range = (lo, hi);
        self
    }

    /// Generates a random catalog + query pair from a seed. The same seed
    /// always produces the same workload.
    pub fn generate(&self, seed: u64) -> (Catalog, Query) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut catalog = Catalog::new();
        let ids: Vec<TableId> = (0..self.num_tables)
            .map(|i| {
                let card = log_uniform(&mut rng, self.cardinality_range)
                    .round()
                    .max(1.0);
                catalog.add_table(format!("T{i}"), card)
            })
            .collect();
        let mut query = Query::new(ids.clone());
        for (a, b) in self.topology.edges(self.num_tables) {
            let sel = log_uniform(&mut rng, self.selectivity_range).min(1.0);
            query.add_predicate(Predicate::binary(ids[a], ids[b], sel));
        }
        (catalog, query)
    }

    /// Generates a batch of workloads with seeds `base_seed..base_seed + k`.
    pub fn generate_batch(&self, base_seed: u64, k: usize) -> Vec<(Catalog, Query)> {
        (0..k as u64)
            .map(|i| self.generate(base_seed + i))
            .collect()
    }

    /// Generates a *query stream* over one shared catalog — the input
    /// shape of `PlanSession::optimize_batch`: `unique` distinct random
    /// structures (seeds `base_seed..base_seed + unique`), each
    /// instantiated `copies` times over its own fresh tables. Copies share
    /// cardinalities and selectivities but name disjoint [`TableId`]s, so
    /// they are structurally identical without being the same query —
    /// exactly what a structure-keyed plan cache deduplicates. The stream
    /// interleaves structures round-robin (`s0 s1 ... s0 s1 ...`),
    /// mimicking recurring query templates in mixed traffic.
    pub fn generate_stream(
        &self,
        base_seed: u64,
        unique: usize,
        copies: usize,
    ) -> (Catalog, Vec<Query>) {
        let mut catalog = Catalog::new();
        let queries = self.generate_stream_into(&mut catalog, base_seed, unique, copies);
        (catalog, queries)
    }

    /// Like [`Self::generate_stream`], but appends the stream's tables to
    /// an existing catalog, so several specs — e.g. different topologies —
    /// can interleave their streams over **one** catalog: the input shape
    /// of a mixed-traffic stream for `PlanSession::optimize_batch` /
    /// `QueryService::submit_many`.
    pub fn generate_stream_into(
        &self,
        catalog: &mut Catalog,
        base_seed: u64,
        unique: usize,
        copies: usize,
    ) -> Vec<Query> {
        // The edge list is a property of (topology, n): compute it once
        // and share it between stat drawing and query instantiation.
        let edges = self.topology.edges(self.num_tables);
        // Draw each structure's statistics once, with the same stream the
        // single-query generator uses.
        let structures: Vec<(Vec<f64>, Vec<f64>)> = (0..unique as u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64((base_seed + i) ^ 0x9E37_79B9_7F4A_7C15);
                let cards: Vec<f64> = (0..self.num_tables)
                    .map(|_| {
                        log_uniform(&mut rng, self.cardinality_range)
                            .round()
                            .max(1.0)
                    })
                    .collect();
                let sels: Vec<f64> = edges
                    .iter()
                    .map(|_| log_uniform(&mut rng, self.selectivity_range).min(1.0))
                    .collect();
                (cards, sels)
            })
            .collect();

        let mut queries = Vec::with_capacity(unique * copies);
        // Table names carry the pre-existing catalog size so interleaved
        // streams of several specs stay distinguishable when debugging.
        let offset = catalog.num_tables();
        for copy in 0..copies {
            for (s, (cards, sels)) in structures.iter().enumerate() {
                let ids: Vec<TableId> = cards
                    .iter()
                    .enumerate()
                    .map(|(t, &card)| catalog.add_table(format!("O{offset}S{s}C{copy}T{t}"), card))
                    .collect();
                let mut query = Query::new(ids.clone());
                for (&(a, b), &sel) in edges.iter().zip(sels) {
                    query.add_predicate(Predicate::binary(ids[a], ids[b], sel));
                }
                queries.push(query);
            }
        }
        queries
    }
}

/// The default size sweep of [`size_swept_stream`]: small queries any
/// exact backend resolves in microseconds (3, 6), the upper edge of the
/// subset-DP comfort zone (10), and a tail size where search backends earn
/// their keep (14).
pub const SWEEP_SIZES: [usize; 4] = [3, 6, 10, 14];

/// Generates a **size-swept mixed stream** over one shared catalog: the
/// same topology mix instantiated at several query sizes, each structure
/// repeated `copies` times (round-robin interleaved, disjoint tables per
/// copy — the contract of [`WorkloadSpec::generate_stream_into`]).
///
/// This is the input shape an adaptive backend router is judged on: one
/// batch that contains both the small-query fast path and the MILP-worthy
/// tail, with enough duplicate structures for the session plan cache to
/// matter. The structure seed depends only on `(topology, size,
/// base_seed)` — not on the position in the mix — so streams with
/// different topology subsets still draw identical statistics for the
/// shapes they share.
///
/// Returns the shared catalog and `topologies.len() * sizes.len() *
/// copies` queries.
pub fn size_swept_stream(
    topologies: &[Topology],
    sizes: &[usize],
    base_seed: u64,
    copies: usize,
) -> (Catalog, Vec<Query>) {
    let mut catalog = Catalog::new();
    let mut queries = Vec::with_capacity(topologies.len() * sizes.len() * copies);
    for _ in 0..copies {
        for (t, &topology) in topologies.iter().enumerate() {
            for (s, &size) in sizes.iter().enumerate() {
                // One structure per (topology, size), identical across
                // copies: ask the stream generator for a single unique
                // structure and one copy — the seed shifts per shape but
                // not per copy.
                let seed = base_seed
                    .wrapping_add(1009 * t as u64)
                    .wrapping_add(9176 * s as u64);
                let spec = WorkloadSpec::new(topology, size);
                let batch = spec.generate_stream_into(&mut catalog, seed, 1, 1);
                debug_assert_eq!(batch.len(), 1);
                queries.extend(batch);
            }
        }
    }
    (catalog, queries)
}

/// Query sizes of [`large_query_stream`]: the router's decompose threshold
/// (20), the decomposition acceptance size (30), and the paper's largest
/// evaluated query (60). The table-set bitmask caps queries at
/// `milpjoin_qopt::query::MAX_TABLES` (64) tables, so the stream tops out
/// at 60 rather than continuing to 100.
pub const LARGE_SIZES: [usize; 3] = [20, 30, 60];

/// Generates a **large-query stream** over one shared catalog: chains,
/// cycles and stars ([`Topology::PAPER`]) at every [`LARGE_SIZES`] size,
/// each structure repeated `copies` times. Every query sits at or past the
/// router's `very-large-decompose` threshold — this is the traffic shape
/// the decompose-and-conquer backend exists for, where a whole-query root
/// LP stalls (BENCH_0005) and the subset DPs are out of memory range.
///
/// Statistics draw through [`size_swept_stream`], so the structures are
/// deterministic per `base_seed` and identical across copies.
pub fn large_query_stream(base_seed: u64, copies: usize) -> (Catalog, Vec<Query>) {
    size_swept_stream(&Topology::PAPER, &LARGE_SIZES, base_seed, copies)
}

fn log_uniform(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    if lo >= hi {
        return lo;
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    (rng.random_range(llo..lhi)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use milpjoin_qopt::JoinGraph;

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = WorkloadSpec::new(Topology::Chain, 8);
        let (c1, q1) = spec.generate(7);
        let (c2, q2) = spec.generate(7);
        for (a, b) in c1.tables().iter().zip(c2.tables()) {
            assert_eq!(a.cardinality, b.cardinality);
        }
        for (a, b) in q1.predicates.iter().zip(&q2.predicates) {
            assert_eq!(a.selectivity, b.selectivity);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = WorkloadSpec::new(Topology::Chain, 8);
        let (c1, _) = spec.generate(1);
        let (c2, _) = spec.generate(2);
        let same = c1
            .tables()
            .iter()
            .zip(c2.tables())
            .all(|(a, b)| a.cardinality == b.cardinality);
        assert!(!same);
    }

    #[test]
    fn topologies_have_expected_shapes() {
        for topo in [
            Topology::Chain,
            Topology::Cycle,
            Topology::Star,
            Topology::Clique,
        ] {
            for n in [3usize, 5, 10] {
                let spec = WorkloadSpec::new(topo, n);
                let (catalog, query) = spec.generate(0);
                query.validate(&catalog).unwrap();
                let shape = JoinGraph::from_query(&query).shape();
                assert_eq!(shape, topo.expected_shape(n), "{topo:?} n={n}");
            }
        }
    }

    #[test]
    fn edge_counts() {
        assert_eq!(Topology::Chain.edges(10).len(), 9);
        assert_eq!(Topology::Cycle.edges(10).len(), 10);
        assert_eq!(Topology::Star.edges(10).len(), 9);
        assert_eq!(Topology::Clique.edges(10).len(), 45);
        // Degenerate sizes.
        assert_eq!(Topology::Cycle.edges(2).len(), 1);
        assert!(Topology::Chain.edges(1).is_empty());
    }

    #[test]
    fn ranges_respected() {
        let spec = WorkloadSpec::new(Topology::Star, 30)
            .cardinalities(100.0, 1000.0)
            .selectivities(0.01, 0.5);
        let (catalog, query) = spec.generate(3);
        for t in catalog.tables() {
            assert!(t.cardinality >= 100.0 && t.cardinality <= 1000.0);
        }
        for p in &query.predicates {
            assert!(p.selectivity >= 0.01 && p.selectivity <= 0.5);
        }
    }

    #[test]
    fn batch_generation() {
        let spec = WorkloadSpec::new(Topology::Cycle, 6);
        let batch = spec.generate_batch(100, 5);
        assert_eq!(batch.len(), 5);
        for (c, q) in &batch {
            q.validate(c).unwrap();
        }
    }

    #[test]
    fn stream_copies_are_structurally_identical_but_disjoint() {
        let spec = WorkloadSpec::new(Topology::Star, 6);
        let (catalog, queries) = spec.generate_stream(11, 2, 3);
        assert_eq!(queries.len(), 6);
        assert_eq!(catalog.num_tables(), 6 * 6);
        for q in &queries {
            q.validate(&catalog).unwrap();
        }
        // Round-robin interleaving: stream[0] and stream[2] are copies of
        // structure 0; stream[1] is structure 1.
        let stats = |q: &Query| -> (Vec<f64>, Vec<f64>) {
            (
                q.tables.iter().map(|&t| catalog.cardinality(t)).collect(),
                q.predicates.iter().map(|p| p.selectivity).collect(),
            )
        };
        assert_eq!(stats(&queries[0]), stats(&queries[2]));
        assert_ne!(stats(&queries[0]), stats(&queries[1]));
        // Copies never share a table.
        assert!(queries[0]
            .tables
            .iter()
            .all(|t| !queries[2].tables.contains(t)));
    }

    #[test]
    fn stream_is_deterministic() {
        let spec = WorkloadSpec::new(Topology::Chain, 5);
        let (c1, q1) = spec.generate_stream(3, 2, 2);
        let (c2, q2) = spec.generate_stream(3, 2, 2);
        assert_eq!(c1.num_tables(), c2.num_tables());
        for (a, b) in q1.iter().zip(&q2) {
            assert_eq!(a.tables, b.tables);
            for (pa, pb) in a.predicates.iter().zip(&b.predicates) {
                assert_eq!(pa.selectivity, pb.selectivity);
            }
        }
    }

    #[test]
    fn size_swept_stream_mixes_sizes_and_repeats_structures() {
        let topologies = [Topology::Chain, Topology::Star];
        let (catalog, queries) = size_swept_stream(&topologies, &SWEEP_SIZES, 5, 3);
        assert_eq!(queries.len(), 2 * SWEEP_SIZES.len() * 3);
        for q in &queries {
            q.validate(&catalog).unwrap();
        }
        // One round covers every (topology, size) cell once, in order.
        let round = 2 * SWEEP_SIZES.len();
        let sizes: Vec<usize> = queries[..round]
            .iter()
            .map(milpjoin_qopt::Query::num_tables)
            .collect();
        assert_eq!(sizes, vec![3, 6, 10, 14, 3, 6, 10, 14]);
        // Copies across rounds are structurally identical (same stats)
        // over disjoint tables.
        let stats = |q: &Query| -> (Vec<f64>, Vec<f64>) {
            (
                q.tables.iter().map(|&t| catalog.cardinality(t)).collect(),
                q.predicates.iter().map(|p| p.selectivity).collect(),
            )
        };
        for cell in 0..round {
            assert_eq!(stats(&queries[cell]), stats(&queries[cell + round]));
            assert!(queries[cell]
                .tables
                .iter()
                .all(|t| !queries[cell + round].tables.contains(t)));
        }
        // Different cells draw different statistics.
        assert_ne!(stats(&queries[0]), stats(&queries[4]));
    }

    #[test]
    fn large_query_stream_is_all_past_the_decompose_threshold() {
        let (catalog, queries) = large_query_stream(11, 2);
        assert_eq!(queries.len(), Topology::PAPER.len() * LARGE_SIZES.len() * 2);
        for q in &queries {
            q.validate(&catalog).unwrap();
            assert!(q.num_tables() >= 20, "{} tables", q.num_tables());
        }
        // One round covers every (topology, size) cell; shapes match the
        // topology mix so router features classify them as intended.
        let round = Topology::PAPER.len() * LARGE_SIZES.len();
        for (i, q) in queries[..round].iter().enumerate() {
            let topology = Topology::PAPER[i / LARGE_SIZES.len()];
            let size = LARGE_SIZES[i % LARGE_SIZES.len()];
            assert_eq!(q.num_tables(), size);
            assert_eq!(
                JoinGraph::from_query(q).shape(),
                topology.expected_shape(size)
            );
        }
        // Deterministic per seed.
        let (_, again) = large_query_stream(11, 2);
        for (a, b) in queries.iter().zip(&again) {
            assert_eq!(a.tables, b.tables);
        }
    }

    #[test]
    fn two_table_degenerate_queries() {
        for topo in Topology::PAPER {
            let (c, q) = WorkloadSpec::new(topo, 2).generate(0);
            q.validate(&c).unwrap();
            assert_eq!(q.num_joins(), 1);
        }
    }
}
