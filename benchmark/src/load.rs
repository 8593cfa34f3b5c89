//! Deterministic load generation: every input the program under test
//! sees — configuration XML, seeds, request URLs and their order — is a
//! pure function of the benchmark's `--seed`, drawn before any clock starts.

use gmark::config::write_config;
use gmark::core::schema::GraphConfig;
use gmark::core::selectivity::SelectivityClass;
use gmark::core::usecases;
use gmark::core::workload::{QuerySize, Shape, WorkloadConfig};
use gmark::stats::{DegreeSampler, Prng, Zipf};

/// The `index`-th seed derived from the benchmark seed for `purpose`:
/// independent streams for graph seeds, plan seeds and request sequences.
/// Kept below 2^53, because `summary.json` consumers and the daemon's JSON
/// dialect hold seeds in doubles.
pub fn derive_seed(seed: u64, purpose: u64, index: u64) -> u64 {
    Prng::seed_from_u64(seed).split2(purpose, index).next_u64() >> 11
}

/// Seed-stream ids for [`derive_seed`].
pub mod purpose {
    /// Graph + workload seed of a generation run.
    pub const GEN: u64 = 1;
    /// Seeds of the plans a serve workload requests.
    pub const PLAN: u64 = 2;
    /// The request sequence of a serve workload.
    pub const REQUESTS: u64 = 3;
    /// Probe positions of the paged-store lookup layer metric.
    pub const PROBES: u64 = 4;
}

/// The paper's four use cases at the benchmark's fixed instance sizes
/// (about three million edges and 350 MB of N-Triples each).
pub const USECASES: [(&str, u64); 4] = [
    ("bib", 2_000_000),
    ("lsn", 400_000),
    ("sp", 1_000_000),
    ("wd", 50_000),
];

/// The configuration XML of use case `name` at `nodes` nodes with a
/// default chain workload of `queries` queries.
pub fn usecase_xml(name: &str, nodes: u64, queries: usize) -> String {
    let schema = usecases::by_name(name).expect("one of the paper's four use cases");
    write_config(
        &GraphConfig::new(nodes, schema),
        Some(&WorkloadConfig::new(queries)),
    )
}

/// `eval-inram`: Bib at 2000 nodes, 30 mixed queries — every shape and
/// selectivity class, recursion 0.4, 2–4 conjuncts, 1–2 disjuncts.
pub fn eval_inram_xml() -> String {
    let mut w = WorkloadConfig::new(30);
    w.shapes = Shape::ALL.to_vec();
    w.selectivities = SelectivityClass::ALL.to_vec();
    w.recursion_probability = 0.4;
    w.query_size = QuerySize {
        conjuncts: (2, 4),
        disjuncts: (1, 2),
        ..QuerySize::default()
    };
    write_config(&GraphConfig::new(2_000, usecases::bib()), Some(&w))
}

/// `eval-paged`: Bib at 150 000 nodes, 30 chain queries of constant and
/// linear class.
pub fn eval_paged_xml() -> String {
    let mut w = WorkloadConfig::new(30);
    w.selectivities = vec![SelectivityClass::Constant, SelectivityClass::Linear];
    write_config(&GraphConfig::new(150_000, usecases::bib()), Some(&w))
}

/// The artifacts a serve workload asks for, in the fixed 50 / 30 / 20 mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Asked {
    /// `summary.json` — a few hundred bytes, compared modulo stage seconds.
    Summary,
    /// `workload.sparql` — a few kilobytes.
    Sparql,
    /// `graph.nt` — the large chunked body.
    Graph,
}

impl Asked {
    /// All three, in mix order.
    pub const ALL: [Asked; 3] = [Asked::Summary, Asked::Sparql, Asked::Graph];

    /// The artifact's file name, as the daemon's `artifact=` selector and
    /// the CLI's output directory spell it.
    pub fn file_name(self) -> &'static str {
        match self {
            Asked::Summary => "summary.json",
            Asked::Sparql => "workload.sparql",
            Asked::Graph => "graph.nt",
        }
    }
}

/// One pre-drawn request: which plan, which artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the workload's plan list.
    pub plan: usize,
    /// The artifact asked for.
    pub asked: Asked,
}

/// Draws the whole request sequence up front: plan popularity is
/// Zipf(1.0) over `plans` (plan 0 the most popular), the artifact mix is
/// 50 % summary, 30 % SPARQL, 20 % graph. Client interleaving later decides
/// *when* a request is sent, never *which*.
pub fn request_sequence(seed: u64, plans: usize, count: usize) -> Vec<Request> {
    let zipf = Zipf::new(plans as u64, 1.0);
    let mut rng = Prng::seed_from_u64(derive_seed(seed, purpose::REQUESTS, 0));
    (0..count)
        .map(|_| {
            let plan = (zipf.sample(&mut rng) - 1) as usize;
            let asked = match rng.below(10) {
                0..=4 => Asked::Summary,
                5..=7 => Asked::Sparql,
                _ => Asked::Graph,
            };
            Request { plan, asked }
        })
        .collect()
}

/// The seeds of a serve workload's plans.
pub fn plan_seeds(seed: u64, plans: usize) -> Vec<u64> {
    (0..plans as u64)
        .map(|i| derive_seed(seed, purpose::PLAN, i))
        .collect()
}

/// The `POST /v1/run` target of one request.
pub fn run_url(nodes: u64, plan_seed: u64, threads: usize, asked: Asked) -> String {
    format!(
        "/v1/run?nodes={nodes}&seed={plan_seed}&threads={threads}&artifact={}",
        asked.file_name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_a_pure_function_of_the_seed() {
        let a = request_sequence(7, 16, 5_000);
        assert_eq!(a, request_sequence(7, 16, 5_000));
        assert_ne!(a, request_sequence(8, 16, 5_000));
        // A longer draw extends a shorter one: warm-up and timed requests
        // can be cut from one sequence.
        assert_eq!(a[..1000], request_sequence(7, 16, 1_000)[..]);
        assert!(a.iter().all(|r| r.plan < 16));
    }

    #[test]
    fn sequence_follows_the_zipf_and_artifact_mix() {
        let seq = request_sequence(1, 16, 40_000);
        let share = |pred: &dyn Fn(&Request) -> bool| {
            seq.iter().filter(|r| pred(r)).count() as f64 / seq.len() as f64
        };
        // Zipf(1.0) over 16: P(plan 0) = 1 / H_16 = 0.2958.
        assert!((share(&|r| r.plan == 0) - 0.2958).abs() < 0.01);
        assert!((share(&|r| r.plan == 15) - 0.2958 / 16.0).abs() < 0.005);
        assert!((share(&|r| r.asked == Asked::Summary) - 0.5).abs() < 0.01);
        assert!((share(&|r| r.asked == Asked::Sparql) - 0.3).abs() < 0.01);
        assert!((share(&|r| r.asked == Asked::Graph) - 0.2).abs() < 0.01);
    }

    #[test]
    fn derived_seeds_are_distinct_per_purpose_and_index() {
        let seeds = plan_seeds(1, 64);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 64);
        assert!(seeds.iter().all(|&s| s < 1 << 53));
        assert_eq!(seeds, plan_seeds(1, 64));
        assert_ne!(seeds, plan_seeds(2, 64));
        assert_ne!(
            derive_seed(1, purpose::GEN, 0),
            derive_seed(1, purpose::PLAN, 0)
        );
    }

    #[test]
    fn generated_configs_parse_back_to_the_requested_plan() {
        for (name, nodes) in USECASES {
            let plan = gmark::run::RunPlan::from_xml(&usecase_xml(name, nodes, 30)).unwrap();
            assert_eq!(plan.graph.n, nodes);
            assert_eq!(plan.workload.as_ref().unwrap().size, 30);
        }
        let inram = gmark::run::RunPlan::from_xml(&eval_inram_xml()).unwrap();
        let w = inram.workload.unwrap();
        assert_eq!((w.size, w.shapes.len(), w.selectivities.len()), (30, 4, 3));
        assert_eq!(w.query_size.conjuncts, (2, 4));
        assert_eq!(w.query_size.disjuncts, (1, 2));
        assert!((w.recursion_probability - 0.4).abs() < 1e-12);
        let paged = gmark::run::RunPlan::from_xml(&eval_paged_xml()).unwrap();
        assert_eq!(paged.graph.n, 150_000);
        assert_eq!(paged.workload.unwrap().selectivities.len(), 2);
        assert_eq!(
            run_url(2000, 9, 2, Asked::Graph),
            "/v1/run?nodes=2000&seed=9&threads=2&artifact=graph.nt"
        );
    }
}
