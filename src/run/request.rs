//! The one description of a run's parameters, shared by every front door.
//!
//! The CLI (`gmark --max-tuples 5`) and the daemon (`POST
//! /v1/run?max_tuples=5`) ask for the same thing in two spellings. This
//! module holds what they have in common, once: the table of parameter
//! names ([`PARAMS`]), one [`RunRequest::set`] that parses and
//! range-checks a value, one statement of each coupling rule
//! ([`RunRequest::check`]), and one [`RunRequest::apply`] that turns a
//! finished request plus a parsed plan into `(RunPlan, RunOptions)` and
//! the canonical snapshot-key material. A door keeps only what is its own
//! — `--config`/`--output`/`--format` on the CLI; `artifact`,
//! `deadline_ms` and the `config=` label over HTTP — and names itself
//! with a [`Door`], so every message exists once and comes out in the
//! spelling the user typed.

use super::plan::too_wide_a_cap;
use super::{validate, EvalSpec, GmarkError, RunOptions, RunPlan};
use gmark_engines::EngineKind;
use gmark_store::Csr;
use std::path::PathBuf;

/// Which front door a request came through: decides how parameter names
/// are spelled, on the way in ([`Door::param`]) and in messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Door {
    /// `--max-tuples 5`: dashes, two leading.
    #[default]
    Cli,
    /// `max_tuples=5`: the table's own spelling.
    Http,
}

impl Door {
    /// This door's spelling of a table name.
    pub fn spell(self, name: &str) -> String {
        match self {
            Door::Cli => format!("--{}", name.replace('_', "-")),
            Door::Http => name.to_owned(),
        }
    }

    /// A message with every `{name}` spelled this door's way.
    fn say(self, template: &str) -> String {
        let mut out = String::new();
        let mut rest = template;
        while let Some((text, tail)) = rest.split_once('{') {
            let (name, tail) = tail.split_once('}').expect("a closed placeholder");
            out.push_str(text);
            out.push_str(&self.spell(name));
            rest = tail;
        }
        out + rest
    }

    /// The parameter this door's spelling names, if any.
    pub fn param(self, spelled: &str) -> Option<&'static Param> {
        PARAMS.iter().find(|p| match self {
            Door::Http => p.name == spelled,
            Door::Cli => self.spell(p.name) == spelled,
        })
    }
}

/// One row of the parameter table.
pub struct Param {
    /// The name, in the table's (and HTTP's) spelling.
    pub name: &'static str,
    /// A switch: the CLI gives it no value (`--stream`), HTTP accepts an
    /// empty value, `1`/`true` or `0`/`false`.
    pub switch: bool,
}

/// Every run parameter: the ten both doors take, plus `from_store`, which
/// only the CLI accepts (the daemon opens no client-named path).
#[rustfmt::skip]
pub static PARAMS: [Param; 11] = [
    Param { name: "seed", switch: false },
    Param { name: "nodes", switch: false },
    Param { name: "threads", switch: false },
    Param { name: "stream", switch: true },
    Param { name: "store", switch: true },
    Param { name: "queries_only", switch: true },
    Param { name: "eval", switch: true },
    Param { name: "engines", switch: false },
    Param { name: "budget_ms", switch: false },
    Param { name: "max_tuples", switch: false },
    Param { name: "from_store", switch: false },
];

/// Fills a parameter's slot once: a second value is an error at either
/// door, so no door can be last-wins while the other is first-wins.
fn put<T>(slot: &mut Option<T>, value: Result<T, String>) -> Result<(), String> {
    if slot.is_some() {
        return Err("given twice".to_owned());
    }
    *slot = Some(value?);
    Ok(())
}

fn number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expected {what}, got {value:?}"))
}

fn boolean(value: &str) -> Result<bool, String> {
    match value {
        "" | "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("expected a boolean, got {other:?}")),
    }
}

/// The run parameters one caller asked for, before they meet a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRequest {
    door: Door,
    seed: Option<u64>,
    nodes: Option<u64>,
    threads: Option<usize>,
    stream: Option<bool>,
    store: Option<bool>,
    queries_only: Option<bool>,
    eval: Option<bool>,
    engines: Option<Vec<EngineKind>>,
    budget_ms: Option<u64>,
    max_tuples: Option<usize>,
    from_store: Option<PathBuf>,
}

impl RunRequest {
    /// An empty request arriving through `door`.
    pub fn new(door: Door) -> RunRequest {
        RunRequest {
            door,
            ..RunRequest::default()
        }
    }

    /// Parses and range-checks one value for the table entry `name` (the
    /// table's spelling; see [`Door::param`] for the door's). A parameter
    /// may be given once. The error names the parameter as the door
    /// spells it.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let door = self.door;
        match name {
            "seed" => put(&mut self.seed, number(value, "an unsigned 64-bit integer")),
            "nodes" => put(&mut self.nodes, number(value, "a node count")),
            "threads" => put(
                &mut self.threads,
                number(value, "a thread count (0 = auto)"),
            ),
            "stream" => put(&mut self.stream, boolean(value)),
            "store" => put(&mut self.store, boolean(value)),
            "queries_only" => put(&mut self.queries_only, boolean(value)),
            "eval" => put(&mut self.eval, boolean(value)),
            "engines" => put(&mut self.engines, EngineKind::parse_list(value)),
            "budget_ms" => put(
                &mut self.budget_ms,
                number(value, "milliseconds (0 = none)"),
            ),
            // Unlike budget_ms, 0 does not mean "unlimited" here.
            "max_tuples" => {
                let cap = number(value, "a tuple cap").and_then(|cap| match cap {
                    0 => Err("the cap must be positive: 0 would fail every non-empty cell".into()),
                    n if n > Csr::MAX_EDGES => Err(too_wide_a_cap(n)),
                    n => Ok(n),
                });
                put(&mut self.max_tuples, cap)
            }
            "from_store" => put(&mut self.from_store, Ok(PathBuf::from(value))),
            _ => return Err(format!("unknown run parameter {name:?}")),
        }
        .map_err(|e| format!("{}: {e}", door.spell(name)))
    }

    /// The coupling rules that need no plan, each stated once. The CLI
    /// runs this before it opens the configuration file, so a violation
    /// is a usage error; [`RunRequest::apply`] runs it again for callers
    /// that did not.
    pub fn check(&self) -> Result<(), String> {
        let on = |switch: Option<bool>| switch == Some(true);
        let eval = on(self.eval);
        let broken = if !eval
            && (self.engines.is_some() || self.budget_ms.is_some() || self.max_tuples.is_some())
        {
            "{engines}/{budget_ms}/{max_tuples} require {eval}"
        } else if eval && on(self.queries_only) {
            "{eval} needs the graph instance; drop {queries_only}"
        } else if self.from_store.is_some() && !eval {
            "{from_store} is only consumed by {eval}"
        } else if self.from_store.is_some()
            && (on(self.store) || on(self.stream) || on(self.queries_only))
        {
            "{from_store} replaces graph generation; drop {store}/{stream}/{queries_only}"
        } else if (on(self.store) || on(self.stream)) && on(self.queries_only) {
            "{queries_only} generates no graph to stream or store; drop {stream}/{store}"
        } else {
            return Ok(());
        };
        Err(self.door.say(broken))
    }

    /// Applies the request to a parsed plan: the plan and options
    /// [`run`](super::run) takes, validated by the same function `run`
    /// itself calls, plus the canonical spelling of every byte-affecting
    /// input besides the schema — what the daemon hashes into its
    /// snapshot key. `threads` is deliberately absent from it: outputs are
    /// byte-identical at every thread count. `default_threads` is the
    /// door's own default for a request that names none.
    pub fn apply(
        self,
        mut plan: RunPlan,
        default_threads: usize,
    ) -> Result<(RunPlan, RunOptions, String), GmarkError> {
        self.check().map_err(GmarkError::Plan)?;
        let on = |switch: Option<bool>| switch == Some(true);
        let (stream, store, queries_only) =
            (on(self.stream), on(self.store), on(self.queries_only));
        for (name, given) in [("queries_only", queries_only), ("eval", on(self.eval))] {
            if given && plan.workload.is_none() {
                let source = match &plan.source {
                    Some(path) => path.display().to_string(),
                    None => "the schema".to_owned(),
                };
                return Err(GmarkError::Plan(format!(
                    "{}: {source} has no <workload> section",
                    self.door.spell(name)
                )));
            }
        }
        if let Some(n) = self.nodes {
            plan = plan.with_nodes(n);
        }
        if queries_only {
            plan.outputs.graph = false;
        }
        if on(self.eval) {
            let defaults = EvalSpec::default();
            plan.eval = Some(EvalSpec {
                engines: self.engines.unwrap_or(defaults.engines),
                budget_ms: self.budget_ms.unwrap_or(defaults.budget_ms),
                max_tuples: self.max_tuples.unwrap_or(defaults.max_tuples),
            });
        }
        if store {
            plan.outputs.store = true;
        }
        if let Some(path) = self.from_store {
            plan.outputs.graph = false;
            plan.from_store = Some(path);
        }
        let opts = RunOptions {
            seed: self.seed,
            threads: self.threads.unwrap_or(default_threads),
            stream,
            ..RunOptions::default()
        };
        validate(&plan, &opts)?;

        // Hashed, never compared, so the exact format is free to evolve.
        let eval_key = match &plan.eval {
            Some(s) => format!("{}:{}:{}", s.letters(), s.budget_ms, s.max_tuples),
            None => "off".to_owned(),
        };
        let key_material = format!(
            "seed={:?};nodes={:?};stream={stream};store={store};\
             queries_only={queries_only};eval={eval_key};config={:?}",
            self.seed, self.nodes, plan.source,
        );
        Ok((plan, opts, key_material))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB_XML: &str = include_str!("../../examples/configs/bib.xml");

    /// Drives one parameter set (`"eval engines=S,D"`) through a door,
    /// every name in that door's own spelling, onto the Bib plan — without
    /// its `<workload>` when the set starts with `-workload`. Returns the
    /// accepted plan's shape and its key material.
    fn drive(door: Door, params: &str) -> Result<(String, String), String> {
        let mut request = RunRequest::new(door);
        let (workload, params) = match params.strip_prefix("-workload") {
            Some(params) => (false, params),
            None => (true, params),
        };
        for pair in params.split_whitespace() {
            let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
            let spelled = door.spell(name);
            let param = door
                .param(&spelled)
                .unwrap_or_else(|| panic!("{spelled} is not in the table"));
            assert_eq!(param.name, name);
            request.set(param.name, value)?;
        }
        let mut plan = RunPlan::from_xml(BIB_XML).expect("bib parses");
        if !workload {
            plan.workload = None;
            plan.outputs.workload = false;
        }
        let (plan, opts, key) = request.apply(plan, 1).map_err(|e| e.to_string())?;
        let outputs = [
            (plan.outputs.graph, "graph"),
            (plan.outputs.store, "store"),
            (plan.outputs.workload, "workload"),
            (plan.from_store.is_some(), "from-store"),
            (opts.stream, "streamed"),
        ];
        let outputs: Vec<&str> = outputs.iter().filter(|o| o.0).map(|o| o.1).collect();
        // What differs from the defaults (Bib's 10 000 nodes, no seed, the
        // one thread `apply` was given), then the evaluation stage.
        let mut shape = outputs.join("+");
        if plan.graph.n != 10_000 {
            shape += &format!(" n={}", plan.graph.n);
        }
        if let Some(seed) = opts.seed {
            shape += &format!(" seed={seed}");
        }
        if opts.threads != 1 {
            shape += &format!(" t={}", opts.threads);
        }
        if let Some(s) = &plan.eval {
            shape += &format!(" eval={}:{}:{}", s.letters(), s.budget_ms, s.max_tuples);
        }
        Ok((shape, key))
    }

    #[test]
    fn both_doors_accept_and_reject_the_same_parameter_sets() {
        const EVAL: &str = "eval=PGSD:10000:20000000";
        // `Ok(shape)` of the accepted plan (`EVAL` stands for the default
        // evaluation stage), or `Err(fragment)` of both doors' message.
        let cases: &[(&str, Result<&str, &str>)] = &[
            // Defaults and plain values.
            ("", Ok("graph+workload")),
            (
                "seed=7 nodes=200 threads=0",
                Ok("graph+workload n=200 seed=7 t=0"),
            ),
            ("nodes=0", Ok("graph+workload n=0")),
            ("stream store=1", Ok("graph+store+workload+streamed")),
            ("stream=false store=0", Ok("graph+workload")),
            ("queries_only=true", Ok("workload")),
            // The evaluation stage and its sub-parameters.
            ("eval", Ok("graph+workload EVAL")),
            (
                "eval engines=S,D budget_ms=0 max_tuples=1000",
                Ok("graph+workload eval=SD:0:1000"),
            ),
            (
                "eval stream store",
                Ok("graph+store+workload+streamed EVAL"),
            ),
            ("eval from_store=g.gstore", Ok("workload+from-store EVAL")),
            // A switch that is off asks for nothing.
            ("eval=0 queries_only=false", Ok("graph+workload")),
            // Value and range checks.
            ("seed=x", Err("expected an unsigned 64-bit integer")),
            ("seed=-1", Err("expected an unsigned 64-bit integer")),
            ("nodes=many", Err("expected a node count")),
            ("threads=two", Err("expected a thread count")),
            ("threads=1024", Ok("graph+workload t=1024")),
            ("threads=1025", Err("at most 1024 worker threads")),
            (
                "threads=18446744073709551615",
                Err("at most 1024 worker threads"),
            ),
            ("stream=maybe", Err("expected a boolean")),
            ("eval engines=P,X", Err("unknown engine letter")),
            ("eval engines=P,P", Err("selected twice")),
            ("eval budget_ms=soon", Err("expected milliseconds")),
            ("eval max_tuples=0", Err("the cap must be positive")),
            ("eval max_tuples=lots", Err("expected a tuple cap")),
            (
                "eval max_tuples=4294967295",
                Ok("graph+workload eval=PGSD:10000:4294967295"),
            ),
            (
                "eval max_tuples=4294967296",
                Err("must be at most 4294967295"),
            ),
            // A parameter may be given once — switches included, whatever
            // the values.
            ("nodes=200 nodes=300", Err("nodes: given twice")),
            ("seed=1 seed=1", Err("seed: given twice")),
            ("stream=0 stream=1", Err("stream: given twice")),
            ("eval engines=P engines=G", Err("engines: given twice")),
            // Coupling rules that need no plan.
            ("engines=P", Err("require")),
            ("budget_ms=5", Err("require")),
            ("max_tuples=5", Err("require")),
            ("eval queries_only", Err("graph instance; drop")),
            ("from_store=g.gstore", Err("only consumed by")),
            ("eval from_store=g store", Err("replaces graph generation")),
            ("eval from_store=g stream", Err("replaces graph generation")),
            ("store queries_only", Err("generates no graph")),
            ("stream queries_only", Err("generates no graph to stream")),
            ("stream=0 queries_only", Ok("workload")),
            // Rules that need the plan: a `<workload>` to generate from.
            (
                "-workload queries_only",
                Err("the schema has no <workload> section"),
            ),
            (
                "-workload eval",
                Err("eval: the schema has no <workload> section"),
            ),
            // The rule on (plan, options), from the validation run() calls.
            ("eval stream", Err("streamed run needs")),
        ];
        for (params, expected) in cases {
            let cli = drive(Door::Cli, params);
            let http = drive(Door::Http, params);
            match expected {
                Ok(shape) => {
                    let (cli, http) = (cli.expect("the CLI accepts"), http.expect("HTTP accepts"));
                    assert_eq!(cli.0, shape.replace("EVAL", EVAL), "{params}");
                    assert_eq!(cli, http, "{params}: the doors disagree");
                }
                Err(fragment) => {
                    let (cli, http) = (cli.unwrap_err(), http.unwrap_err());
                    assert!(cli.contains(fragment), "{params}: {cli}");
                    assert!(http.contains(fragment), "{params}: {http}");
                    // A door's own message is in that door's spelling; the
                    // library's (the last case) is the same at both.
                    if cli != http {
                        assert!(cli.contains("--"), "{params}: {cli}");
                        assert!(!http.contains("--"), "{params}: CLI spelling in {http}");
                    }
                }
            }
        }
    }

    #[test]
    fn messages_come_out_in_the_doors_spelling() {
        let mut cli = RunRequest::new(Door::Cli);
        assert_eq!(
            cli.set("max_tuples", "0").unwrap_err(),
            "--max-tuples: the cap must be positive: 0 would fail every non-empty cell"
        );
        let http = drive(Door::Http, "budget_ms=5").unwrap_err();
        assert_eq!(
            http,
            "invalid plan: engines/budget_ms/max_tuples require eval"
        );
    }

    #[test]
    fn spellings_map_onto_the_table_and_the_table_onto_set() {
        for param in &PARAMS {
            let spelled = Door::Cli.spell(param.name);
            assert_eq!(Door::Cli.param(&spelled).map(|p| p.name), Some(param.name));
            assert_eq!(
                Door::Http.param(param.name).map(|p| p.name),
                Some(param.name)
            );
            // Every row is settable; a switch needs no value.
            let value = match param.name {
                "engines" => "P",
                _ if param.switch => "",
                _ => "1",
            };
            let mut request = RunRequest::new(Door::Http);
            assert_eq!(request.set(param.name, value), Ok(()), "{spelled}");
        }
        for stranger in [
            "--max_tuples",
            "max-tuples",
            "-seed",
            "--seeds",
            "--",
            "--config",
        ] {
            assert!(Door::Cli.param(stranger).is_none(), "{stranger}");
        }
        assert!(Door::Http.param("--seed").is_none());
        assert!(Door::Http.param("artifact").is_none());
        let unknown = RunRequest::new(Door::Http).set("sede", "7").unwrap_err();
        assert!(unknown.contains("unknown"), "{unknown}");
    }

    #[test]
    fn the_key_material_tracks_bytes_not_execution() {
        let key = |params: &str| drive(Door::Http, params).unwrap().1;
        assert_eq!(key("threads=1"), key("threads=8"));
        assert_eq!(key(""), key("stream=0"));
        let distinct = [
            "",
            "seed=1",
            "nodes=1",
            "stream",
            "store",
            "queries_only",
            "eval",
        ];
        let keys: std::collections::BTreeSet<String> = distinct.iter().map(|p| key(p)).collect();
        assert_eq!(keys.len(), distinct.len(), "{keys:?}");
        assert_ne!(key("eval"), key("eval max_tuples=5"));
    }
}
