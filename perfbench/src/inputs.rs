//! Seeded inputs for every workload.
//!
//! Everything a workload feeds the program — graphs, mutation batches,
//! query vertices — is generated here from the workload seed before any
//! timing starts, and summarized by a digest so a run can show which
//! inputs it measured.

use ripple_graph::generate::{
    power_law_graph, random_change_batch, random_undirected, Graph, GraphChange, MutableGraph,
};
use ripple_graph::pagerank::PageRankConfig;
use ripple_graph::VertexId;

/// Power-law bias of every generated graph (Table I and §V-C use 0.8).
pub const ALPHA: f64 = 0.8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Direct vs MapReduce PageRank on an in-process memory store.
    PagerankMem,
    /// The same jobs over a loopback cluster of TCP part servers.
    PagerankNet,
    /// Direct PageRank with durable barrier commits on the WAL store.
    PagerankDiskDurable,
    /// Serving-mode incremental SSSP under mutations, queries and a
    /// competing tenant.
    SsspServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PagerankMem,
        Workload::PagerankNet,
        Workload::PagerankDiskDurable,
        Workload::SsspServe,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankMem => "pagerank-mem",
            Workload::PagerankNet => "pagerank-net",
            Workload::PagerankDiskDurable => "pagerank-disk-durable",
            Workload::SsspServe => "sssp-serve",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input sizes the benchmark runs this workload at.
    #[must_use]
    pub fn sizes(self) -> Sizes {
        // Table I graph 1 is 132,000 vertices and 4,341,659 edges; the
        // §V-C graph is 100,000 vertices and about 1.8M undirected edges.
        let table1 = |scale: u64| Sizes::PageRank {
            vertices: (132_000 / scale) as u32,
            edges: 4_341_659 / scale,
            iterations: 10,
        };
        match self {
            Workload::PagerankMem => table1(10),
            Workload::PagerankNet => table1(50),
            Workload::PagerankDiskDurable => table1(20),
            Workload::SsspServe => Sizes::Serve {
                vertices: 20_000,
                edges: 360_000,
                batch: 100,
                batches: 1_500,
                queries: 1 << 16,
            },
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// A directed power-law graph ranked for a fixed iteration count.
    PageRank {
        /// Vertex count.
        vertices: u32,
        /// Edge count (duplicates kept, as generated).
        edges: u64,
        /// Iterations of the rank equations.
        iterations: u32,
    },
    /// An undirected power-law graph, a stream of mutation batches and a
    /// list of query vertices.
    Serve {
        /// Vertex count.
        vertices: u32,
        /// Edge insertions attempted (duplicates and self-loops dropped).
        edges: u64,
        /// Changes per mutation batch.
        batch: usize,
        /// Batches generated: the most a run can push.
        batches: usize,
        /// Query vertices generated (cycled by the query thread).
        queries: usize,
    },
}

/// PageRank inputs.
#[derive(Debug, Clone)]
pub struct PageRankInputs {
    /// The graph to rank.
    pub graph: Graph,
    /// Damping and iteration count.
    pub config: PageRankConfig,
}

/// Serving inputs.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The initial graph.
    pub graph: MutableGraph,
    /// The SSSP source vertex.
    pub source: VertexId,
    /// The batch applied during warm-up.
    pub warmup: Vec<GraphChange>,
    /// The batches the timed phase pushes, in order.
    pub batches: Vec<Vec<GraphChange>>,
    /// Query vertices, in order.
    pub queries: Vec<VertexId>,
}

/// Generates PageRank inputs of `sizes` from `seed`.
///
/// # Panics
///
/// Panics if `sizes` is not [`Sizes::PageRank`].
#[must_use]
pub fn pagerank(sizes: Sizes, seed: u64) -> PageRankInputs {
    let Sizes::PageRank {
        vertices,
        edges,
        iterations,
    } = sizes
    else {
        panic!("PageRank inputs need PageRank sizes, got {sizes:?}");
    };
    PageRankInputs {
        graph: power_law_graph(vertices, edges, ALPHA, sub_seed(seed, 1)),
        config: PageRankConfig {
            damping: 0.85,
            iterations,
        },
    }
}

/// Generates serving inputs of `sizes` from `seed`.
///
/// # Panics
///
/// Panics if `sizes` is not [`Sizes::Serve`].
#[must_use]
pub fn serve(sizes: Sizes, seed: u64) -> ServeInputs {
    let Sizes::Serve {
        vertices,
        edges,
        batch,
        batches,
        queries,
    } = sizes
    else {
        panic!("serving inputs need serving sizes, got {sizes:?}");
    };
    let batch_seed = sub_seed(seed, 3);
    let mut q = sub_seed(seed, 4);
    ServeInputs {
        graph: random_undirected(vertices, edges, ALPHA, sub_seed(seed, 2)),
        source: 0,
        warmup: random_change_batch(vertices, batch, ALPHA, batch_seed),
        batches: (1..=batches as u64)
            .map(|i| random_change_batch(vertices, batch, ALPHA, batch_seed.wrapping_add(i)))
            .collect(),
        queries: (0..queries)
            .map(|_| (splitmix64(&mut q) % u64::from(vertices)) as VertexId)
            .collect(),
    }
}

/// FNV-1a digest of PageRank inputs.
#[must_use]
pub fn pagerank_digest(inputs: &PageRankInputs) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(inputs.config.iterations));
    h.u64(inputs.config.damping.to_bits());
    graph_digest(&mut h, &inputs.graph);
    h.0
}

/// FNV-1a digest of serving inputs.
#[must_use]
pub fn serve_digest(inputs: &ServeInputs) -> u64 {
    let mut h = Fnv::new();
    graph_digest(&mut h, inputs.graph.graph());
    h.u64(u64::from(inputs.source));
    for batch in std::iter::once(&inputs.warmup).chain(&inputs.batches) {
        h.u64(batch.len() as u64);
        for change in batch {
            let (u, v) = change.endpoints();
            let add = matches!(change, GraphChange::AddEdge(..));
            h.u64(u64::from(add));
            h.u64(u64::from(u));
            h.u64(u64::from(v));
        }
    }
    for &v in &inputs.queries {
        h.u64(u64::from(v));
    }
    h.0
}

fn graph_digest(h: &mut Fnv, graph: &Graph) {
    h.u64(u64::from(graph.vertex_count()));
    for (v, out) in graph.iter() {
        h.u64(u64::from(v));
        h.u64(out.len() as u64);
        for &w in out {
            h.u64(u64::from(w));
        }
    }
}

/// A per-purpose seed derived from the workload seed.
#[must_use]
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut s = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_PR: Sizes = Sizes::PageRank {
        vertices: 300,
        edges: 3_000,
        iterations: 3,
    };
    const SMALL_SERVE: Sizes = Sizes::Serve {
        vertices: 300,
        edges: 2_000,
        batch: 10,
        batches: 5,
        queries: 50,
    };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = pagerank_digest(&pagerank(SMALL_PR, 7));
        assert_eq!(a, pagerank_digest(&pagerank(SMALL_PR, 7)));
        assert_ne!(a, pagerank_digest(&pagerank(SMALL_PR, 8)));

        let b = serve_digest(&serve(SMALL_SERVE, 7));
        assert_eq!(b, serve_digest(&serve(SMALL_SERVE, 7)));
        assert_ne!(b, serve_digest(&serve(SMALL_SERVE, 8)));
    }

    #[test]
    fn every_serving_input_depends_on_the_seed() {
        let a = serve(SMALL_SERVE, 1);
        let b = serve(SMALL_SERVE, 2);
        assert_ne!(a.batches, b.batches);
        assert_ne!(a.warmup, b.warmup);
        assert_ne!(a.queries, b.queries);
        assert_eq!(a.batches.len(), 5);
        assert!(a.queries.iter().all(|&v| v < 300));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
