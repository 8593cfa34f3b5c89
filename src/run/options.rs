//! Execution options, collapsed from the three per-crate option structs.
//!
//! PRs 1–3 grew three overlapping option types — `GeneratorOptions` (seed,
//! threads, Gaussian fast path), `StreamOptions` (base IRI, scratch dir),
//! and `WorkloadStreamOptions` (threads, scratch dir) — that every caller
//! had to assemble consistently by hand. [`RunOptions`] is the single
//! knob set of the unified pipeline; [`run`](crate::run::run) derives the
//! per-crate structs from it internally.

use gmark_core::gen::{GeneratorOptions, StreamOptions};
use gmark_translate::WorkloadStreamOptions;
use std::path::PathBuf;

/// How to execute a [`RunPlan`](crate::run::RunPlan): seed, parallelism,
/// and streaming. The *what* lives in the plan; everything here may change
/// without changing a single output byte — except `seed` (different bytes
/// by design) and `stream` (same edge set, different serialization
/// strategy).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Master seed override. `None` keeps the defaults: the generator's
    /// built-in seed for the graph and the workload configuration's own
    /// seed (e.g. from the XML `seed` attribute) for the queries.
    /// `Some(s)` pins both pipelines to `s`.
    pub seed: Option<u64>,
    /// Worker threads for every stage (graph constraints, CSR items,
    /// workload queries, evaluation cells). `0` means every available core.
    /// Every output is byte-identical at every thread count.
    pub threads: usize,
    /// Memory-bounded graph pipeline: format the edges as N-Triples while
    /// they are generated, in blocks of one constraint's edges, and write
    /// them to `graph.nt` in generation order, in one pass, instead of
    /// materializing the graph. No temporary files; memory is bounded by
    /// one set-up constraint's slot vectors per worker plus a fixed block
    /// budget. Streamed output preserves
    /// generation order and keeps duplicate triples; non-streamed output
    /// is sorted and deduplicated (same edge set — RDF set semantics make
    /// them equivalent data).
    pub stream: bool,
    /// Base IRI of the N-Triples output (no trailing slash needed).
    pub base_iri: String,
    /// Where a store run stages its store file when the
    /// [`Sink`](crate::run::Sink) has no real file for it
    /// ([`Sink::local_path`](crate::run::Sink::local_path) is `None`): the
    /// only temporary a run ever creates. `None` means
    /// [`std::env::temp_dir`]. Runs without a store, and sinks with real
    /// files, never touch it — the N-Triples, store and workload paths
    /// keep everything else in memory.
    pub scratch_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        let defaults = GeneratorOptions::default();
        RunOptions {
            seed: None,
            threads: defaults.threads,
            stream: false,
            base_iri: StreamOptions::default().base,
            scratch_dir: None,
        }
    }
}

impl RunOptions {
    /// Options pinning both pipelines to one seed.
    pub fn with_seed(seed: u64) -> RunOptions {
        RunOptions {
            seed: Some(seed),
            ..RunOptions::default()
        }
    }

    /// Sets the worker thread count (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> RunOptions {
        self.threads = threads;
        self
    }

    /// Enables or disables the memory-bounded streaming graph pipeline.
    pub fn stream(mut self, stream: bool) -> RunOptions {
        self.stream = stream;
        self
    }

    /// The graph seed after applying the default.
    pub fn graph_seed(&self) -> u64 {
        self.seed.unwrap_or(GeneratorOptions::default().seed)
    }

    /// The thread count a run reports: `0` resolved to every available
    /// core ([`gmark_store::resolve_threads`]); each stage then uses at
    /// most one worker per unit of its own work.
    pub fn effective_threads(&self) -> usize {
        gmark_store::resolve_threads(self.threads, usize::MAX)
    }

    /// The graph generator's option struct derived from these options.
    pub(crate) fn generator_options(&self) -> GeneratorOptions {
        GeneratorOptions {
            seed: self.graph_seed(),
            threads: self.threads,
            ..GeneratorOptions::default()
        }
    }

    /// The streaming graph pipeline's option struct.
    pub(crate) fn stream_options(&self) -> StreamOptions {
        StreamOptions {
            base: self.base_iri.clone(),
            ..StreamOptions::default()
        }
    }

    /// The streaming workload pipeline's option struct.
    pub(crate) fn workload_stream_options(&self) -> WorkloadStreamOptions {
        WorkloadStreamOptions {
            threads: self.threads,
            ..WorkloadStreamOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_per_crate_structs() {
        let opts = RunOptions::default();
        let gen = GeneratorOptions::default();
        assert_eq!(opts.graph_seed(), gen.seed);
        assert_eq!(opts.threads, gen.threads);
        assert_eq!(opts.base_iri, StreamOptions::default().base);
    }

    #[test]
    fn seed_override_reaches_the_generator() {
        let opts = RunOptions::with_seed(7).threads(3);
        let gen = opts.generator_options();
        assert_eq!(gen.seed, 7);
        assert_eq!(gen.threads, 3);
    }

    #[test]
    fn zero_threads_auto_detects() {
        assert!(RunOptions::default().threads(0).effective_threads() >= 1);
    }
}
