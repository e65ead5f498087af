//! Feed-forward flow queries: decode, canonicalization, and the
//! bit-stable `/v1/flow` answer body.
//!
//! A flow query names a built-in topology (`mesh`, `omega`,
//! `butterfly`, `fat-tree`) plus its dimensions and workload, and the
//! answer reports every routed flow's end-to-end waiting/delay
//! statistics from the `banyan-flow` analytic engine. The renderer is
//! shared verbatim with `banyan flow --json`, so the CLI output and the
//! served body are byte-identical — the same `fmt_f64`
//! shortest-round-trip contract as `/query` answers.

use super::answer::{LEVELS, LEVEL_LABELS};
use super::query::{flags_from_query_string, flags_from_value};
use crate::cli::{get, get_prob, validate_flags, Flags};
use banyan_flow::{butterfly, fat_tree, mesh, omega, FlowAnalysis, FlowGraph};
use banyan_obs::json::{write_escaped, write_f64, JsonObject, JsonValue};
use std::collections::HashMap;
use std::fmt::Write;

/// Fields a flow query may carry. Dimension fields are per-topology;
/// using one with the wrong `topo` is rejected (see
/// [`FlowQuery::from_flags`]).
pub const FLOW_FIELDS: &[&str] = &[
    "topo", "k", "stages", "extra", "rows", "cols", "leaves", "spines", "hosts", "p", "m",
];

/// Schema identifier of the `/v1/flow` answer body.
pub const FLOW_SCHEMA: &str = "banyan-serve/flow/v1";

/// Terminal-count cap: a topology request may not expand into more
/// endpoints than this (the flows array is rendered in full, and the
/// banyan generators grow as `k^stages` — unbounded dimensions would
/// let one request allocate without limit).
const MAX_TERMINALS: usize = 4_096;

/// Router/host cap for the all-to-all generators (mesh, fat-tree),
/// whose flow count grows quadratically in the endpoint count.
const MAX_ALL_TO_ALL: usize = 64;

/// A validated topology selection with its dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topo {
    /// `rows × cols` mesh, XY routing, all-to-all uniform traffic.
    Mesh {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// `stages`-stage omega network of `k × k` switches (identity
    /// permutation).
    Omega {
        /// Switch arity.
        k: u32,
        /// Stage count.
        stages: u32,
    },
    /// `k`-ary butterfly on `k^stages` wires with `extra` straight
    /// stages prepended.
    Butterfly {
        /// Switch arity.
        k: u32,
        /// Butterfly stages.
        stages: u32,
        /// Extra straight stages.
        extra: u32,
    },
    /// Two-level fat-tree, all-to-all uniform host traffic.
    FatTree {
        /// Leaf switches.
        leaves: usize,
        /// Spine switches.
        spines: usize,
        /// Hosts per leaf.
        hosts: usize,
    },
}

impl Topo {
    /// Canonical label used in cache keys and response bodies.
    pub fn label(&self) -> String {
        match self {
            Topo::Mesh { rows, cols } => format!("mesh:rows={rows},cols={cols}"),
            Topo::Omega { k, stages } => format!("omega:k={k},n={stages}"),
            Topo::Butterfly { k, stages, extra } => {
                format!("butterfly:k={k},n={stages},extra={extra}")
            }
            Topo::FatTree {
                leaves,
                spines,
                hosts,
            } => format!("fat-tree:leaves={leaves},spines={spines},hosts={hosts}"),
        }
    }
}

/// A validated flow query.
#[derive(Clone, Debug)]
pub struct FlowQuery {
    /// Topology and dimensions.
    pub topo: Topo,
    /// Per-terminal injection probability.
    pub p: f64,
    /// Constant message size (cycles).
    pub m: u32,
}

/// The dimension fields each topology accepts; anything else present is
/// an error naming the offending flag.
fn check_dims(flags: &Flags, topo: &str, allowed: &[&str]) -> Result<(), String> {
    const DIMS: &[&str] = &["k", "stages", "extra", "rows", "cols", "leaves", "spines", "hosts"];
    for d in DIMS {
        if flags.contains_key(*d) && !allowed.contains(d) {
            return Err(format!("--{d} does not apply to --topo {topo}"));
        }
    }
    Ok(())
}

impl FlowQuery {
    /// Validates a flags map into a flow query — the single decode path
    /// behind JSON bodies, query strings, and the `banyan flow` CLI.
    pub fn from_flags(flags: &Flags) -> Result<FlowQuery, String> {
        validate_flags(flags, FLOW_FIELDS)?;
        let p = get_prob(flags, "p", 0.5)?;
        let m: u32 = get(flags, "m", 1)?;
        if m == 0 {
            return Err("--m must be at least 1".to_string());
        }
        let topo_name = flags.get("topo").map(String::as_str).unwrap_or("mesh");
        let topo = match topo_name {
            "mesh" => {
                check_dims(flags, "mesh", &["rows", "cols"])?;
                let rows: usize = get(flags, "rows", 2)?;
                let cols: usize = get(flags, "cols", 2)?;
                // checked_mul: a wrapping product could slip under the
                // cap and reach the generator with absurd dimensions.
                let routers = rows.checked_mul(cols).filter(|&n| n <= MAX_ALL_TO_ALL);
                let Some(routers) = routers else {
                    return Err(format!(
                        "mesh of {rows}×{cols} routers exceeds the {MAX_ALL_TO_ALL}-router cap"
                    ));
                };
                if routers < 2 {
                    return Err("mesh needs at least two routers".to_string());
                }
                Topo::Mesh { rows, cols }
            }
            "omega" | "butterfly" => {
                let allowed: &[&str] = if topo_name == "omega" {
                    &["k", "stages"]
                } else {
                    &["k", "stages", "extra"]
                };
                check_dims(flags, topo_name, allowed)?;
                let k: u32 = get(flags, "k", 2)?;
                if k < 2 {
                    return Err(format!("--k must be at least 2, got {k}"));
                }
                let stages: u32 = get(flags, "stages", 3)?;
                if stages == 0 {
                    return Err("--stages must be at least 1".to_string());
                }
                let wires = (k as usize).checked_pow(stages);
                if wires.is_none_or(|w| w > MAX_TERMINALS) {
                    return Err(format!(
                        "k^stages terminals exceed the {MAX_TERMINALS}-terminal cap"
                    ));
                }
                if topo_name == "omega" {
                    Topo::Omega { k, stages }
                } else {
                    let extra: u32 = get(flags, "extra", 0)?;
                    if extra > 16 {
                        return Err(format!("--extra must be at most 16, got {extra}"));
                    }
                    Topo::Butterfly { k, stages, extra }
                }
            }
            "fat-tree" => {
                check_dims(flags, "fat-tree", &["leaves", "spines", "hosts"])?;
                let leaves: usize = get(flags, "leaves", 2)?;
                let spines: usize = get(flags, "spines", 2)?;
                let hosts: usize = get(flags, "hosts", 2)?;
                if leaves < 2 || spines < 1 || hosts < 1 {
                    return Err(
                        "fat-tree needs --leaves >= 2, --spines >= 1, --hosts >= 1".to_string()
                    );
                }
                let within_cap = leaves
                    .checked_mul(hosts)
                    .is_some_and(|n| n <= MAX_ALL_TO_ALL);
                if !within_cap || spines > MAX_ALL_TO_ALL {
                    return Err(format!(
                        "fat-tree of {leaves}×{hosts} hosts exceeds the {MAX_ALL_TO_ALL}-host cap"
                    ));
                }
                Topo::FatTree {
                    leaves,
                    spines,
                    hosts,
                }
            }
            other => {
                return Err(format!(
                    "--topo must be mesh, omega, butterfly, or fat-tree, got '{other}'"
                ));
            }
        };
        Ok(FlowQuery { topo, p, m })
    }

    /// Decodes a JSON object body.
    pub fn from_json(text: &str) -> Result<FlowQuery, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
        FlowQuery::from_value(&doc)
    }

    /// Decodes an already-parsed JSON object (one `/v1/batch` element).
    pub fn from_value(doc: &JsonValue) -> Result<FlowQuery, String> {
        FlowQuery::from_flags(&flags_from_value(doc)?)
    }

    /// Decodes a `topo=mesh&rows=2`-style query string.
    pub fn from_query_string(qs: &str) -> Result<FlowQuery, String> {
        FlowQuery::from_flags(&flags_from_query_string(qs)?)
    }

    /// Canonical answer-cache key. The `flow:` prefix keeps the flow
    /// keyspace disjoint from `/query` keys in the shared cache.
    pub fn cache_key(&self) -> String {
        format!("flow:{};p={};m={}", self.topo.label(), self.p, self.m)
    }

    /// Builds the routed graph this query describes.
    pub fn build_graph(&self) -> FlowGraph {
        match self.topo {
            Topo::Mesh { rows, cols } => mesh(rows, cols, self.p, self.m),
            Topo::Omega { k, stages } => omega(k, stages, self.p, self.m),
            Topo::Butterfly { k, stages, extra } => butterfly(k, stages, extra, self.p, self.m),
            Topo::FatTree {
                leaves,
                spines,
                hosts,
            } => fat_tree(leaves, spines, hosts, self.p, self.m),
        }
    }
}

/// Bytes reserved per `per_flow` row: rows render to ~350–410 bytes,
/// so the body is allocated once.
const ROW_BYTES: usize = 448;

/// Appends `, "key": v` to `out`.
fn push_f64_field(out: &mut String, key: &str, v: f64) {
    out.push_str(", \"");
    out.push_str(key);
    out.push_str("\": ");
    write_f64(out, v);
}

/// Computes and renders the full `/v1/flow` answer: builds the graph,
/// runs the analytic engine (an unstable link is the one recoverable
/// error → `422` upstream), and renders every flow's statistics with
/// `fmt_f64` bit-stability. `banyan flow --json` prints exactly this
/// string.
pub fn flow_body(q: &FlowQuery) -> Result<String, String> {
    let graph = q.build_graph();
    let an = FlowAnalysis::new(&graph)?;
    let mut o = JsonObject::new();
    o.field_str("schema", FLOW_SCHEMA)
        .field_str("source", "flow-analytic")
        .field_str("topo", &q.topo.label());
    let mut cfg = JsonObject::new();
    cfg.field_f64("p", q.p).field_u64("m", u64::from(q.m));
    o.field_raw("config", &cfg.finish());
    o.field_u64("nodes", graph.nodes().len() as u64)
        .field_u64("links", graph.links().len() as u64)
        .field_u64("flows", graph.flows().len() as u64);
    // `per_flow` is the last field: reopen the header object and render
    // the rows straight into the same buffer.
    let mut body = o.finish();
    body.pop();
    body.reserve(graph.flows().len() * ROW_BYTES + 16);
    body.push_str(", \"per_flow\": [");
    // The gamma fit is a function of the `(mean, var)` bits alone, and
    // symmetric topologies repeat a few fits across many flows: run each
    // distinct fit's quantile searches once. `None` is a point mass at 0.
    let mut wait_quantiles: HashMap<(u64, u64), Option<[f64; LEVELS.len()]>> = HashMap::new();
    for (f, flow) in graph.flows().iter().enumerate() {
        if f > 0 {
            body.push_str(", ");
        }
        write!(body, "{{\"id\": {f}, \"src\": \"").expect("writing to a String cannot fail");
        write_escaped(&mut body, &graph.nodes()[flow.src].name);
        body.push_str("\", \"dst\": \"");
        write_escaped(&mut body, &graph.nodes()[flow.dst].name);
        write!(body, "\", \"hops\": {}", flow.path.len()).expect("writing to a String cannot fail");
        push_f64_field(&mut body, "rate", flow.rate);
        let (mean, var) = (an.mean_wait(f), an.var_wait(f));
        let quantiles = *wait_quantiles
            .entry((mean.to_bits(), var.to_bits()))
            .or_insert_with(|| an.gamma(f).map(|g| LEVELS.map(|level| g.quantile(level))));
        body.push_str(", \"wait\": {\"mean\": ");
        write_f64(&mut body, mean);
        push_f64_field(&mut body, "var", var);
        for (i, label) in LEVEL_LABELS.iter().enumerate() {
            push_f64_field(&mut body, label, quantiles.map_or(0.0, |q| q[i]));
        }
        // `FlowAnalysis::delay_quantile`, with the shared wait quantiles.
        let shift = an.total_service(f) as f64;
        body.push_str("}, \"delay\": {\"mean\": ");
        write_f64(&mut body, an.mean_delay(f));
        for (i, label) in LEVEL_LABELS.iter().enumerate() {
            push_f64_field(&mut body, label, quantiles.map_or(shift, |q| shift + q[i]));
        }
        body.push_str("}}");
    }
    body.push_str("]}\n");
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_query_string_and_flags_agree() {
        let a = FlowQuery::from_json(r#"{"topo": "mesh", "rows": 2, "cols": 2, "p": 0.5}"#).unwrap();
        let b = FlowQuery::from_query_string("topo=mesh&rows=2&cols=2&p=0.5").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.topo, Topo::Mesh { rows: 2, cols: 2 });
    }

    #[test]
    fn defaults_are_the_acceptance_mesh() {
        let q = FlowQuery::from_query_string("").unwrap();
        assert_eq!(q.topo, Topo::Mesh { rows: 2, cols: 2 });
        assert_eq!(q.cache_key(), "flow:mesh:rows=2,cols=2;p=0.5;m=1");
    }

    #[test]
    fn foreign_dimensions_are_rejected() {
        let err = FlowQuery::from_query_string("topo=omega&rows=2").unwrap_err();
        assert!(err.contains("--rows does not apply"), "{err}");
        let err = FlowQuery::from_query_string("topo=mesh&k=2").unwrap_err();
        assert!(err.contains("--k does not apply"), "{err}");
        let err = FlowQuery::from_query_string("topo=omega&extra=1").unwrap_err();
        assert!(err.contains("--extra does not apply"), "{err}");
    }

    #[test]
    fn oversized_topologies_are_rejected() {
        assert!(FlowQuery::from_query_string("topo=omega&k=4&stages=9")
            .unwrap_err()
            .contains("terminal cap"));
        assert!(FlowQuery::from_query_string("topo=mesh&rows=9&cols=9")
            .unwrap_err()
            .contains("router cap"));
        assert!(FlowQuery::from_query_string("topo=fat-tree&leaves=40&hosts=2")
            .unwrap_err()
            .contains("host cap"));
        // checked_pow overflow must fail cleanly, not panic.
        assert!(FlowQuery::from_query_string("topo=omega&k=2&stages=4000000000").is_err());
        // Dimension products that wrap usize must hit the cap error, not
        // slip under it (2 × (2^63 + 1) wraps to 2).
        assert!(
            FlowQuery::from_query_string("topo=mesh&rows=2&cols=9223372036854775809")
                .unwrap_err()
                .contains("router cap")
        );
        assert!(
            FlowQuery::from_query_string("topo=fat-tree&leaves=9223372036854775809&hosts=2")
                .unwrap_err()
                .contains("host cap")
        );
    }

    #[test]
    fn unknown_fields_and_values_get_clean_errors() {
        assert!(FlowQuery::from_query_string("topo=torus").unwrap_err().contains("--topo"));
        assert!(FlowQuery::from_query_string("p=1.5").is_err());
        assert!(FlowQuery::from_query_string("m=0").is_err());
        assert!(FlowQuery::from_json("[1]").unwrap_err().contains("object"));
        let err = FlowQuery::from_query_string("topoo=mesh").unwrap_err();
        assert!(err.contains("did you mean --topo?"), "{err}");
    }

    #[test]
    fn unstable_load_surfaces_from_the_engine() {
        // p = 1.0 puts every mesh ejection port at ρ = 1.
        let q = FlowQuery::from_query_string("topo=mesh&p=1").unwrap();
        assert!(flow_body(&q).is_err());
    }

    /// `flow_body` bytes pinned across commits: each golden file is the
    /// `banyan flow --json` output of the named query. Re-record them
    /// only for a change that means to move the numbers, and list the
    /// largest change per file in CHANGES.md.
    #[test]
    fn flow_bodies_match_the_golden_files() {
        for (qs, golden) in [
            (
                "topo=mesh&rows=3&cols=3&p=0.12",
                include_str!("../../tests/golden/flow_mesh_3x3_p0.12.json"),
            ),
            (
                "topo=mesh&rows=2&cols=2&p=0.3&m=2",
                include_str!("../../tests/golden/flow_mesh_2x2_p0.3_m2.json"),
            ),
            (
                "topo=fat-tree&leaves=4&spines=2&hosts=2&p=0.3",
                include_str!("../../tests/golden/flow_fat_tree_4_2_2_p0.3.json"),
            ),
            (
                "topo=butterfly&k=2&stages=3&extra=1&p=0.5",
                include_str!("../../tests/golden/flow_butterfly_k2_n3_extra1_p0.5.json"),
            ),
        ] {
            let q = FlowQuery::from_query_string(qs).unwrap();
            assert!(flow_body(&q).unwrap() == golden, "{qs}: body differs from its golden file");
        }
    }

    /// The shared per-gamma quantiles render exactly the bits of
    /// `FlowAnalysis::delay_quantile` for every flow.
    #[test]
    fn delay_quantiles_match_the_engine_bit_for_bit() {
        for qs in [
            "topo=mesh&rows=4&cols=4&p=0.12",
            "topo=fat-tree&leaves=4&spines=2&hosts=2&p=0.3",
            "topo=omega&k=2&stages=4&p=0.5",
        ] {
            let q = FlowQuery::from_query_string(qs).unwrap();
            let doc = JsonValue::parse(&flow_body(&q).unwrap()).unwrap();
            let rows = doc.get("per_flow").and_then(JsonValue::as_array).unwrap();
            let g = q.build_graph();
            let an = FlowAnalysis::new(&g).unwrap();
            assert_eq!(rows.len(), g.flows().len());
            for (f, row) in rows.iter().enumerate() {
                let delay = row.get("delay").unwrap();
                for (label, level) in LEVEL_LABELS.iter().zip(LEVELS) {
                    let served = delay.get(label).and_then(JsonValue::as_f64).unwrap();
                    let engine = an.delay_quantile(f, level);
                    assert_eq!(served.to_bits(), engine.to_bits(), "{qs} flow {f} {label}");
                }
            }
        }
    }

    #[test]
    fn body_is_complete_and_reparses() {
        let q = FlowQuery::from_query_string("topo=mesh&rows=2&cols=2&p=0.5").unwrap();
        let body = flow_body(&q).unwrap();
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(FLOW_SCHEMA));
        assert_eq!(doc.get("flows").and_then(JsonValue::as_u64), Some(12));
        let rows = doc.get("per_flow").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 12);
        let g = q.build_graph();
        let an = FlowAnalysis::new(&g).unwrap();
        let mean = rows[0]
            .get("wait")
            .and_then(|w| w.get("mean"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(mean.to_bits(), an.mean_wait(0).to_bits());
    }
}
