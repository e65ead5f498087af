//! The analytic per-flow delay engine.
//!
//! Under Kleinrock's independence assumption a flow's end-to-end waiting
//! time is the sum of independent per-hop waits. The per-hop kernel
//! picks between two arrival models from the link's *stream
//! decomposition* — the traffic grouped by how it reaches the link:
//!
//! * Every flow on its **first** hop is an independent Bernoulli source
//!   (each flow injects from its own port; injections are never
//!   serialized against each other).
//! * Every flow in **transit** arrives through its previous link, and
//!   all flows sharing that previous link form **one** stream — a wire
//!   delivers at most one message head per cycle, so their superposition
//!   is serialized upstream.
//!
//! A link fed by **two or more** distinct streams gets the exact
//! tagged-stream law — Theorem 1's decomposition specialized to the
//! real composition, the heterogeneous per-node view meshes and
//! fat-trees need. The wait of a tagged message from stream `s` is
//! `W_s = V + M_s`: `V` the port's stationary start-of-cycle workload
//! (driven by the *full* per-slot work `S = m·Σ_j Bernoulli(r_j)`,
//! solved exactly by the skip-free-to-the-left balance recursion) plus
//! `M_s`, the service of same-slot mates served first — drawn from the
//! *other* streams only (a stream is serialized upstream, so it never
//! batches with itself) at a uniformly random batch position. This is
//! per-flow, not per-link: the minority stream on a port waits longer
//! than the link average because its co-arrivals are the majority.
//!
//! A link fed by a **single** aggregated stream carries no composition
//! information — in this engine a flow is a *rate aggregate* (the
//! paper's uniform-traffic port load), not a literal point source — so
//! the kernel closes with the paper's uniform-switch model: arrivals
//! `Binomial(fan_in, λ/fan_in)` and the [`StageConstants`] stage-`i`
//! laws at the link's depth, exactly the per-stage call
//! `banyan_core::TotalWaiting` makes. A banyan routing the identity
//! permutation has exactly one stream per link, so on a banyan the
//! engine *is* the §V closed form, bit for bit (the contract pinned by
//! `tests/flow.rs`).
//!
//! Means add across hops; variances combine through the §V geometric
//! covariance model applied per hop (`banyan_core::covariance_params`
//! with the hop's own `ρ = mλ` and `k`); the full density is the
//! convolution of the per-hop pmfs — exact §II transform inversion
//! wherever the arrival pgf is known (multi-stream links, depth-1
//! single-stream links), moment-matched gammas discretized to the
//! integer grid for deeper single-stream hops (the §IV laws only give
//! moments there).

use crate::graph::{FlowGraph, FlowId, LinkId};
use banyan_core::models::uniform_queue;
use banyan_core::{covariance_params, StageConstants};
use banyan_numerics::fft::{convolve, normalize_pmf};
use banyan_numerics::series::pmf_mean_var;
use banyan_sim::traffic::ServiceDist;
use banyan_stats::Gamma;
use std::collections::{BTreeMap, HashMap};

/// How traffic reaches a link: fresh flows inject from their own port
/// (`(false, flow_id)`), transit flows arrive serialized through their
/// previous link (`(true, link_id)`).
type StreamKey = (bool, usize);

/// The numbers the per-hop kernel needs.
#[derive(Clone, Copy, Debug)]
pub struct HopParams {
    /// The link this hop queues at.
    pub link: LinkId,
    /// Depth of the link in the precedence DAG (stage index `i`).
    pub depth: u32,
    /// Fan-in `k` of the owning node.
    pub fan_in: u32,
    /// Aggregated link rate `λ` (the paper's per-port load `p`).
    pub lambda: f64,
    /// Constant message size `m` at the owning node.
    pub m: u32,
    /// Rate of the stream the tagged flow arrives in at this hop (its
    /// own injection, or the serialized previous link it shares).
    pub own_stream: f64,
}

impl HopParams {
    /// Hop traffic intensity `ρ = mλ`.
    pub fn rho(&self) -> f64 {
        self.m as f64 * self.lambda
    }
}

/// Validated per-link state plus the per-flow delay laws.
///
/// Construction checks the whole graph once: acyclic precedence,
/// constant service at every loaded link, and `ρ = mλ < 1` per link.
#[derive(Clone, Debug)]
pub struct FlowAnalysis<'g> {
    graph: &'g FlowGraph,
    constants: StageConstants,
    rates: Vec<f64>,
    depths: Vec<u32>,
    /// Per link: the distinct streams feeding it (fresh flows
    /// individually, transit flows grouped by previous link), in
    /// deterministic key order. Zero-rate contributors are dropped.
    streams: Vec<Vec<(StreamKey, f64)>>,
    /// Per link: the stationary start-of-cycle workload pmf `V` for
    /// multi-stream links (`None` where the single-stream aggregate
    /// closure applies). Solved once at construction, which is also
    /// where a near-critical load whose workload tail outruns
    /// [`MAX_HOP_SUPPORT`] is rejected — so the moment laws never see a
    /// silently truncated pmf.
    workloads: Vec<Option<Vec<f64>>>,
    /// Per flow: `(mean_wait, var_wait)`, folded once at construction
    /// (see [`FlowAnalysis::flow_moments`]).
    moments: Vec<(f64, f64)>,
}

/// Support bound for per-hop pmfs: beyond this the engine refuses
/// rather than silently truncating mass (loads this heavy want the
/// simulator, not a 2^17-point convolution).
const MAX_HOP_SUPPORT: usize = 1 << 17;

impl<'g> FlowAnalysis<'g> {
    /// Validates `graph` and prepares the engine with the paper's
    /// interpolation constants.
    pub fn new(graph: &'g FlowGraph) -> Result<Self, String> {
        Self::with_constants(graph, StageConstants::default())
    }

    /// Same, with custom stage constants (e.g. re-calibrated).
    pub fn with_constants(graph: &'g FlowGraph, constants: StageConstants) -> Result<Self, String> {
        let rates = graph.link_rates();
        let depths = graph.link_depths()?;
        for (l, (&lambda, link)) in rates.iter().zip(graph.links()).enumerate() {
            if lambda == 0.0 {
                continue;
            }
            let node = &graph.nodes()[link.from];
            let ServiceDist::Constant(m) = node.service else {
                return Err(format!(
                    "analytic engine needs constant service, node '{}' has {:?}",
                    node.name, node.service
                ));
            };
            let rho = m as f64 * lambda;
            if rho >= 1.0 {
                return Err(format!(
                    "link {l} (out of '{}') is overloaded: ρ = mλ = {rho:.4} ≥ 1",
                    node.name
                ));
            }
        }
        // Stream decomposition: group each link's traffic by arrival
        // port. Keys sort fresh sources (by flow id) before transit
        // streams (by upstream link id), so the order is deterministic.
        let mut groups: Vec<BTreeMap<StreamKey, f64>> =
            vec![BTreeMap::new(); graph.links().len()];
        for (f, flow) in graph.flows().iter().enumerate() {
            if flow.rate == 0.0 {
                continue;
            }
            for (j, &l) in flow.path.iter().enumerate() {
                let key = if j == 0 {
                    (false, f)
                } else {
                    (true, flow.path[j - 1])
                };
                *groups[l].entry(key).or_insert(0.0) += flow.rate;
            }
        }
        let streams: Vec<Vec<(StreamKey, f64)>> = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
        // Solve the start-of-cycle workload chain of every multi-stream
        // link up front: the per-slot work is `S = m·Σ_j Bernoulli(r_j)`
        // over the link's streams, and a tail that outruns the support
        // cap is a construction error (the same "load too heavy" refusal
        // `hop_pmf` makes), not a silent truncation.
        let mut workloads = vec![None; graph.links().len()];
        for (l, stream) in streams.iter().enumerate() {
            if stream.len() < 2 {
                continue;
            }
            let node = &graph.nodes()[graph.links()[l].from];
            let ServiceDist::Constant(m) = node.service else {
                unreachable!("loaded links were validated constant-service above");
            };
            let m = m as usize;
            let mut batch = vec![1.0];
            for &(_, r) in stream {
                batch = convolve(&batch, &[1.0 - r, r]);
            }
            let mut s_pmf = vec![0.0; (batch.len() - 1) * m + 1];
            for (b, &p) in batch.iter().enumerate() {
                s_pmf[b * m] = p;
            }
            workloads[l] = Some(
                workload_pmf(&s_pmf)
                    .map_err(|e| format!("link {l} (out of '{}'): {e}", node.name))?,
            );
        }
        let mut an = FlowAnalysis {
            graph,
            constants,
            rates,
            depths,
            streams,
            workloads,
            moments: Vec::new(),
        };
        an.moments = an.flow_moments();
        Ok(an)
    }

    /// Every flow's `(mean_wait, var_wait)`, folded in path order (see
    /// [`FlowAnalysis::mean_wait`] and [`FlowAnalysis::var_wait`]). A
    /// hop's moments depend only on its link and the rate of the stream
    /// the tagged flow arrives in (`m` is fixed by the link, and the
    /// mates are the link's streams minus one of that rate), so each
    /// `(link, own_stream)` pair is solved once and shared by every flow
    /// that crosses the link in a stream of that rate.
    fn flow_moments(&self) -> Vec<(f64, f64)> {
        let mut solved: HashMap<(LinkId, u64), (f64, f64)> = HashMap::new();
        (0..self.graph.flows().len())
            .map(|f| {
                let hops = self.hop_params(f);
                let per_hop: Vec<(f64, f64)> = hops
                    .iter()
                    .map(|h| {
                        *solved
                            .entry((h.link, h.own_stream.to_bits()))
                            .or_insert_with(|| self.hop_moments(h))
                    })
                    .collect();
                let mean = per_hop.iter().map(|&(w, _)| w).sum();
                let hop_count = hops.len();
                let var = hops
                    .iter()
                    .zip(&per_hop)
                    .enumerate()
                    .map(|(j, (h, &(_, v)))| {
                        let (a, b) = covariance_params(h.rho(), h.fan_in);
                        let tail_len = (hop_count - 1 - j) as i32;
                        let factor = 1.0 + 2.0 * a * (1.0 - b.powi(tail_len)) / (1.0 - b);
                        v * factor
                    })
                    .sum();
                (mean, var)
            })
            .collect()
    }

    /// The graph under analysis.
    pub fn graph(&self) -> &FlowGraph {
        self.graph
    }

    /// Aggregated rate of link `l`.
    pub fn link_rate(&self, l: LinkId) -> f64 {
        self.rates[l]
    }

    /// Depth of link `l` in the precedence DAG.
    pub fn link_depth(&self, l: LinkId) -> u32 {
        self.depths[l]
    }

    /// The rates of the distinct streams feeding link `l` (fresh flows
    /// individually, transit flows grouped by previous link).
    pub fn link_streams(&self, l: LinkId) -> Vec<f64> {
        self.streams[l].iter().map(|&(_, r)| r).collect()
    }

    /// The exact tagged-stream wait pmf for a multi-stream hop:
    /// `W_s = V ⊛ M_s` with `V` the stationary start-of-cycle workload
    /// under the full per-slot work `S = m·Σ_j Bernoulli(r_j)` and
    /// `M_s` the work of same-slot mates served first, drawn from the
    /// *other* streams at a uniformly random batch position. `None` for
    /// single-stream links (the aggregate closure applies there — see
    /// the module docs) and idle links.
    fn tagged_hop_pmf(&self, h: &HopParams) -> Option<Vec<f64>> {
        // The stationary workload under the full per-slot work was
        // solved at construction (present exactly for multi-stream
        // links).
        let v = self.workloads[h.link].as_deref()?;
        let streams = &self.streams[h.link];
        let m = h.m as usize;
        // Same-slot mates come from the other streams only — a stream
        // is serialized upstream, so it never batches with itself. Skip
        // one occurrence of the tagged flow's own stream rate (streams
        // of equal rate are interchangeable).
        let mut mates = vec![1.0];
        let mut skipped = false;
        for &(_, r) in streams {
            if !skipped && r.to_bits() == h.own_stream.to_bits() {
                skipped = true;
                continue;
            }
            mates = convolve(&mates, &[1.0 - r, r]);
        }
        // Uniform batch position: with `b` mates present, `a` of them
        // are served first with probability 1/(b+1), for a = 0..=b.
        let mut ahead = vec![0.0; mates.len()];
        for (b, &p) in mates.iter().enumerate() {
            let share = p / (b as f64 + 1.0);
            for slot in ahead.iter_mut().take(b + 1) {
                *slot += share;
            }
        }
        let mut m_pmf = vec![0.0; (ahead.len() - 1) * m + 1];
        for (a, &p) in ahead.iter().enumerate() {
            m_pmf[a * m] = p;
        }
        Some(convolve(v, &m_pmf))
    }

    /// The kernel inputs for each hop of flow `f`, in path order.
    pub fn hop_params(&self, f: FlowId) -> Vec<HopParams> {
        let path = &self.graph.flows()[f].path;
        path.iter()
            .enumerate()
            .map(|(j, &l)| {
                let node = &self.graph.nodes()[self.graph.links()[l].from];
                let ServiceDist::Constant(m) = node.service else {
                    unreachable!("constructor rejected non-constant service on loaded links");
                };
                let key = if j == 0 { (false, f) } else { (true, path[j - 1]) };
                // Streams are in key order; a zero-rate flow alone on
                // its arrival port has no stream and skips no mate.
                let streams = &self.streams[l];
                let own_stream = streams
                    .binary_search_by(|&(k, _)| k.cmp(&key))
                    .map_or(0.0, |i| streams[i].1);
                HopParams {
                    link: l,
                    depth: self.depths[l],
                    fan_in: node.fan_in,
                    lambda: self.rates[l],
                    m,
                    own_stream,
                }
            })
            .collect()
    }

    /// Mean and variance of the wait at one hop. Multi-stream links use
    /// the exact tagged-stream law for the composed arrivals;
    /// single-stream links use the §IV stage-`i` laws at the aggregate
    /// load — the same `StageConstants` calls (same branch on `m`) as
    /// `TotalWaiting::stage_mean` / `stage_var`. Solved afresh on every
    /// call; the per-flow laws read the table built at construction.
    pub fn hop_moments(&self, h: &HopParams) -> (f64, f64) {
        if let Some(pmf) = self.tagged_hop_pmf(h) {
            return pmf_mean_var(&pmf);
        }
        if h.m == 1 {
            (
                self.constants.w_stage(h.depth, h.lambda, h.fan_in),
                self.constants.v_stage(h.depth, h.lambda, h.fan_in),
            )
        } else {
            let m = h.m as f64;
            (
                self.constants.w_stage_m(h.depth, h.lambda, h.fan_in, m),
                self.constants.v_stage_m(h.depth, h.lambda, h.fan_in, m),
            )
        }
    }

    /// Mean end-to-end waiting time of flow `f`: sum of the hop means in
    /// ascending path order (the accumulation order of
    /// `TotalWaiting::mean_total`, so the banyan case agrees bit for
    /// bit).
    pub fn mean_wait(&self, f: FlowId) -> f64 {
        self.moments[f].0
    }

    /// End-to-end waiting variance of flow `f` under the §V geometric
    /// covariance model, applied per hop with that hop's own `(ρ, k)`:
    /// hop `j` of `L` contributes `v_j·(1 + 2a(1 − b^{L−1−j})/(1 − b))`.
    /// On a banyan every hop shares `(ρ, k)`, and the arithmetic is
    /// exactly `TotalWaiting::var_total`.
    pub fn var_wait(&self, f: FlowId) -> f64 {
        self.moments[f].1
    }

    /// Gamma approximation of flow `f`'s waiting time, moment-matched to
    /// [`FlowAnalysis::mean_wait`] / [`FlowAnalysis::var_wait`]. `None`
    /// when the flow sees no contention (degenerate wait at 0).
    pub fn gamma(&self, f: FlowId) -> Option<Gamma> {
        let (mean, var) = self.moments[f];
        Gamma::from_mean_var(mean, var)
    }

    /// Cut-through service time of flow `f`: one cycle of head advance
    /// per hop plus the tail of the message behind it, `L + m₁ − 1`,
    /// with `m₁` the message size at the first hop (on a banyan:
    /// `n + m − 1`, `TotalWaiting::total_service`).
    pub fn total_service(&self, f: FlowId) -> u32 {
        let flow = &self.graph.flows()[f];
        let first = &self.graph.nodes()[self.graph.links()[flow.path[0]].from];
        let ServiceDist::Constant(m) = first.service else {
            unreachable!("constructor rejected non-constant service on loaded links");
        };
        flow.path.len() as u32 + m - 1
    }

    /// Mean end-to-end delay (waiting plus pipelined service).
    pub fn mean_delay(&self, f: FlowId) -> f64 {
        self.mean_wait(f) + self.total_service(f) as f64
    }

    /// Approximate `q`-th delay quantile of flow `f` via the gamma
    /// waiting model shifted by the service time.
    ///
    /// # Panics
    /// Panics unless `q ∈ (0, 1)`.
    pub fn delay_quantile(&self, f: FlowId, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile level must be in (0,1)");
        let shift = self.total_service(f) as f64;
        match self.gamma(f) {
            Some(g) => shift + g.quantile(q),
            None => shift,
        }
    }

    /// The pmf of one hop's wait on the integer grid: the exact
    /// tagged-stream law on multi-stream links, exact Theorem 1
    /// inversion on depth-1 single-stream links (fresh
    /// `Binomial(fan_in, λ/fan_in)`), and a discretized moment-matched
    /// gamma for deeper single-stream hops (the §IV laws only give
    /// moments there). Support extends until less than `1e-12` mass
    /// remains.
    fn hop_pmf(&self, h: &HopParams) -> Result<Vec<f64>, String> {
        if h.lambda == 0.0 {
            return Ok(vec![1.0]);
        }
        if let Some(pmf) = self.tagged_hop_pmf(h) {
            return Ok(pmf);
        }
        if h.depth == 1 {
            let q = uniform_queue(h.fan_in, h.lambda, h.m)
                .map_err(|e| format!("hop at link {}: {e:?}", h.link))?;
            let len = (q.wait_quantile(1.0 - 1e-12) as usize).saturating_add(8);
            if len > MAX_HOP_SUPPORT {
                return Err(format!(
                    "hop at link {} needs {len} support points (> {MAX_HOP_SUPPORT}); load too heavy for the density engine",
                    h.link
                ));
            }
            Ok(q.pmf(len))
        } else {
            let (w, v) = self.hop_moments(h);
            let Some(g) = Gamma::from_mean_var(w, v) else {
                return Ok(vec![1.0]);
            };
            let hi = g.quantile(1.0 - 1e-12).ceil() as usize + 2;
            if hi > MAX_HOP_SUPPORT {
                return Err(format!(
                    "hop at link {} needs {hi} support points (> {MAX_HOP_SUPPORT}); load too heavy for the density engine",
                    h.link
                ));
            }
            // Integer discretization with the half-integer continuity
            // correction used throughout the repo: P(j) = F(j+½) − F(j−½).
            let mut pmf = Vec::with_capacity(hi + 1);
            let mut prev = 0.0;
            for j in 0..=hi {
                let c = g.cdf(j as f64 + 0.5);
                pmf.push(c - prev);
                prev = c;
            }
            Ok(pmf)
        }
    }

    /// The full end-to-end waiting-time pmf of flow `f`: per-hop pmfs
    /// chained with [`convolve`] and renormalized once with
    /// [`normalize_pmf`] (per-hop truncation keeps ≥ `1 − 1e-12` mass,
    /// so the product stays within `normalize_pmf`'s round-off budget).
    pub fn waiting_pmf(&self, f: FlowId) -> Result<Vec<f64>, String> {
        let mut acc = vec![1.0];
        for h in &self.hop_params(f) {
            acc = convolve(&acc, &self.hop_pmf(h)?);
        }
        normalize_pmf(&mut acc);
        Ok(acc)
    }

    /// Dense CDF table of flow `f`'s waiting time (`table[j] = P(w ≤ j)`),
    /// for KS drift gauges via `banyan_obs::tail::table_cdf`.
    pub fn wait_cdf_table(&self, f: FlowId) -> Result<Vec<f64>, String> {
        let pmf = self.waiting_pmf(f)?;
        let mut acc = 0.0;
        Ok(pmf
            .iter()
            .map(|&p| {
                acc += p;
                acc.min(1.0)
            })
            .collect())
    }
}

/// Stationary pmf of the start-of-cycle workload `V` of a clocked
/// single-server port fed by iid per-slot work `S ~ s_pmf`:
/// `V' = max(V + S − 1, 0)`.
///
/// The chain is skip-free to the left, so the balance equations solve
/// by forward substitution from `π₀`: work conservation gives the
/// fraction of idle slots `P(V = 0, S = 0) = 1 − E[S]`, i.e.
/// `π₀ = (1 − E[S]) / s₀`, and for `j ≥ 0`
/// `π_{j+1}·s₀ = π_j − Σ_{i≤j} π_i·s_{j+1−i} − [j = 0]·π₀·s₀`.
/// The geometric tail is chased until less than `1e-13` mass remains.
/// A tail still holding more than `1e-12` mass at `MAX_HOP_SUPPORT`
/// points is an error — the same refusal [`FlowAnalysis::hop_pmf`]
/// makes at this bound — never a silent truncation (downstream
/// `normalize_pmf` budgets `1e-9` total round-off, and the moment laws
/// read this pmf directly).
fn workload_pmf(s_pmf: &[f64]) -> Result<Vec<f64>, String> {
    let s0 = s_pmf[0];
    let mean_s: f64 = s_pmf.iter().enumerate().map(|(j, &p)| j as f64 * p).sum();
    debug_assert!(s0 > 0.0 && mean_s < 1.0, "caller verified ρ < 1");
    let mut pi = vec![(1.0 - mean_s) / s0];
    let mut mass = pi[0];
    while mass < 1.0 - 1e-13 {
        if pi.len() >= MAX_HOP_SUPPORT {
            if mass < 1.0 - 1e-12 {
                return Err(format!(
                    "start-of-cycle workload needs more than {MAX_HOP_SUPPORT} support points; \
                     load too heavy for the density engine"
                ));
            }
            break;
        }
        let j = pi.len() - 1;
        let mut next = pi[j];
        // Only the trailing window of π reaches back into s_pmf:
        // s_{j+1−i} vanishes once j + 1 − i ≥ len(s).
        for i in (j + 2).saturating_sub(s_pmf.len())..=j {
            next -= pi[i] * s_pmf[j + 1 - i];
        }
        if j == 0 {
            next -= pi[0] * s0;
        }
        let next = (next / s0).max(0.0);
        if next == 0.0 {
            break;
        }
        mass += next;
        pi.push(next);
    }
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowGraph;
    use crate::topo::{butterfly, fat_tree, mesh, omega};
    use banyan_prng::check::{check, Gen};

    /// Flow `f`'s moments with every hop re-solved through
    /// [`FlowAnalysis::hop_moments`] and each own-stream rate found by a
    /// linear scan — no table, no shared hop solutions.
    fn reference_moments(an: &FlowAnalysis, f: FlowId) -> (f64, f64) {
        let path = &an.graph.flows()[f].path;
        let mut hops = an.hop_params(f);
        for (j, h) in hops.iter_mut().enumerate() {
            let key = if j == 0 { (false, f) } else { (true, path[j - 1]) };
            h.own_stream = an.streams[h.link]
                .iter()
                .find(|&&(k, _)| k == key)
                .map_or(0.0, |&(_, r)| r);
        }
        let per_hop: Vec<(f64, f64)> = hops.iter().map(|h| an.hop_moments(h)).collect();
        let mean = per_hop.iter().map(|&(w, _)| w).sum();
        let hop_count = hops.len();
        let var = hops
            .iter()
            .enumerate()
            .map(|(j, h)| {
                let (a, b) = covariance_params(h.rho(), h.fan_in);
                let tail_len = (hop_count - 1 - j) as i32;
                let factor = 1.0 + 2.0 * a * (1.0 - b.powi(tail_len)) / (1.0 - b);
                per_hop[j].1 * factor
            })
            .sum();
        (mean, var)
    }

    fn assert_table_matches_reference(g: &FlowGraph, label: &str) {
        let an = FlowAnalysis::new(g).unwrap();
        for f in 0..g.flows().len() {
            let (mean, var) = reference_moments(&an, f);
            assert_eq!(an.mean_wait(f).to_bits(), mean.to_bits(), "{label} flow {f} mean");
            assert_eq!(an.var_wait(f).to_bits(), var.to_bits(), "{label} flow {f} var");
        }
    }

    #[test]
    fn moment_table_matches_per_hop_recompute_on_bench_topologies() {
        for p in [0.4, 0.5, 0.6] {
            assert_table_matches_reference(&mesh(2, 2, p, 1), &format!("mesh 2x2 p={p}"));
        }
        for p in [0.10, 0.12, 0.14] {
            assert_table_matches_reference(&mesh(4, 4, p, 1), &format!("mesh 4x4 p={p}"));
        }
        for p in [0.02, 0.025, 0.03] {
            assert_table_matches_reference(&mesh(8, 8, p, 1), &format!("mesh 8x8 p={p}"));
        }
        for p in [0.3, 0.5, 0.7] {
            assert_table_matches_reference(&omega(2, 6, p, 1), &format!("omega n=6 p={p}"));
            assert_table_matches_reference(&omega(2, 9, p, 1), &format!("omega n=9 p={p}"));
            let label = format!("butterfly n=6 extra=2 p={p}");
            assert_table_matches_reference(&butterfly(2, 6, 2, p, 1), &label);
        }
        for p in [0.25, 0.3, 0.35] {
            assert_table_matches_reference(&fat_tree(8, 4, 4, p, 1), &format!("fat-tree p={p}"));
        }
    }

    /// The random layered DAGs of `tests/flow.rs` (same draws, so the
    /// same seeds give the same graphs): one forward link per node, one
    /// flow from every node to ejection, ρ < 0.9 on every link.
    fn random_layered_dag(g: &mut Gen) -> FlowGraph {
        let layers = g.usize(2..5);
        let width = g.usize(1..4);
        let mut fg = FlowGraph::new();
        let mut ids = Vec::new();
        for l in 0..layers {
            let mut row = Vec::new();
            for w in 0..width {
                let fan_in = g.u32(2..6);
                let m = g.u32(1..4);
                row.push(fg.add_node(format!("n{l}x{w}"), fan_in, ServiceDist::Constant(m)));
            }
            ids.push(row);
        }
        let mut out_link = vec![0usize; layers * width];
        for l in 0..layers {
            for w in 0..width {
                let to = (l + 1 < layers).then(|| ids[l + 1][g.usize(0..width)]);
                out_link[ids[l][w]] = fg.add_link(ids[l][w], to);
            }
        }
        let cap = 0.9 / (3.0 * (layers * width) as f64);
        for l in 0..layers {
            for w in 0..width {
                let rate = g.f64(0.001..cap);
                let mut path = vec![out_link[ids[l][w]]];
                while let Some(next) = fg.links()[*path.last().unwrap()].to {
                    path.push(out_link[next]);
                }
                let dst = fg.links()[*path.last().unwrap()].from;
                fg.add_flow(ids[l][w], dst, rate, path).unwrap();
            }
        }
        fg
    }

    #[test]
    fn moment_table_matches_per_hop_recompute_on_random_dags() {
        check(24, |g| assert_table_matches_reference(&random_layered_dag(g), "random DAG"));
    }

    /// A zero-rate flow has no stream of its own, so on a multi-stream
    /// link every stream is a mate: for unit service
    /// `E[W_s] = E[V] + (λ − r_s)/2` puts it `r/2` above a flow of rate
    /// `r` on the same port.
    #[test]
    fn zero_rate_flow_takes_every_stream_as_mates() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 3, ServiceDist::unit());
        let out = g.add_link(a, None);
        let busy = g.add_flow(a, a, 0.2, vec![out]).unwrap();
        g.add_flow(a, a, 0.2, vec![out]).unwrap();
        let idle = g.add_flow(a, a, 0.0, vec![out]).unwrap();
        let an = FlowAnalysis::new(&g).unwrap();
        assert_eq!(an.link_streams(out).len(), 2);
        assert_eq!(an.hop_params(idle)[0].own_stream, 0.0);
        assert!((an.mean_wait(idle) - an.mean_wait(busy) - 0.1).abs() < 1e-9);
        assert_table_matches_reference(&g, "zero-rate flow");
    }

    /// A 2-hop line of 2×2 switches, one flow owning every link.
    fn line(p: f64, m: u32) -> FlowGraph {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::Constant(m));
        let b = g.add_node("b", 2, ServiceDist::Constant(m));
        let ab = g.add_link(a, Some(b));
        let out = g.add_link(b, None);
        g.add_flow(a, b, p, vec![ab, out]).unwrap();
        g
    }

    #[test]
    fn line_matches_two_stage_banyan() {
        let g = line(0.5, 1);
        let an = FlowAnalysis::new(&g).unwrap();
        let t = banyan_core::TotalWaiting::new(2, 2, 0.5, 1);
        assert_eq!(an.mean_wait(0).to_bits(), t.mean_total().to_bits());
        assert_eq!(an.var_wait(0).to_bits(), t.var_total().to_bits());
        assert_eq!(an.total_service(0), t.total_service());
    }

    #[test]
    fn overload_is_rejected_with_link_context() {
        let g = line(0.3, 4); // ρ = 1.2
        let err = FlowAnalysis::new(&g).unwrap_err();
        assert!(err.contains("overloaded"), "{err}");
    }

    #[test]
    fn non_constant_service_is_rejected() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::Geometric(0.5));
        let out = g.add_link(a, None);
        g.add_flow(a, a, 0.2, vec![out]).unwrap();
        assert!(FlowAnalysis::new(&g)
            .unwrap_err()
            .contains("constant service"));
    }

    #[test]
    fn idle_flow_waits_zero() {
        let mut g = line(0.5, 1);
        // A zero-rate flow across fresh links.
        let c = g.add_node("c", 2, ServiceDist::unit());
        let cout = g.add_link(c, None);
        let f = g.add_flow(c, c, 0.0, vec![cout]).unwrap();
        let an = FlowAnalysis::new(&g).unwrap();
        assert_eq!(an.mean_wait(f), 0.0);
        assert!(an.gamma(f).is_none());
        assert_eq!(an.delay_quantile(f, 0.99), 1.0); // pure service
        assert_eq!(an.waiting_pmf(f).unwrap(), vec![1.0]);
    }

    /// Two flows on one port: equal rates make the streams
    /// interchangeable, so the tagged-stream law must coincide with
    /// Theorem 1 for `Binomial(2, λ/2)` arrivals (Eq. 6/7 moments).
    #[test]
    fn two_equal_streams_match_theorem_1() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let out = g.add_link(a, None);
        g.add_flow(a, a, 0.25, vec![out]).unwrap();
        g.add_flow(a, a, 0.25, vec![out]).unwrap();
        let an = FlowAnalysis::new(&g).unwrap();
        let q = uniform_queue(2, 0.5, 1).unwrap();
        for f in 0..2 {
            assert!((an.mean_wait(f) - q.mean_wait()).abs() < 1e-9);
            assert!((an.var_wait(f) - q.var_wait()).abs() < 1e-9);
        }
    }

    /// Unequal streams: a tagged message never batches with its own
    /// serialized stream, so the minority stream (whose co-arrivals are
    /// the majority) waits longer — and the rate-weighted mixture is
    /// the link average `E[V] + m·r₂/(2λ)`.
    #[test]
    fn minority_stream_waits_longer_than_majority() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 3, ServiceDist::unit());
        let out = g.add_link(a, None);
        let lo = g.add_flow(a, a, 1.0 / 6.0, vec![out]).unwrap();
        let hi = g.add_flow(a, a, 1.0 / 3.0, vec![out]).unwrap();
        let an = FlowAnalysis::new(&g).unwrap();
        let (w_lo, w_hi) = (an.mean_wait(lo), an.mean_wait(hi));
        assert!(
            w_lo > w_hi,
            "minority {w_lo} should exceed majority {w_hi}"
        );
        // Mixture check against the batch-queue link average: for unit
        // service E[W] = E[V] + r₂/(2λ) with r₂ = 2·r_lo·r_hi.
        let lambda = 0.5;
        let r2 = 2.0 * (1.0 / 6.0) * (1.0 / 3.0);
        let mix = ((1.0 / 6.0) * w_lo + (1.0 / 3.0) * w_hi) / lambda;
        let mates_avg = r2 / (2.0 * lambda);
        let e_v = mix - mates_avg;
        // Tagged decomposition: E[W_s] = E[V] + (λ − r_s)/2.
        assert!((w_lo - (e_v + (lambda - 1.0 / 6.0) / 2.0)).abs() < 1e-9);
        assert!((w_hi - (e_v + (lambda - 1.0 / 3.0) / 2.0)).abs() < 1e-9);
    }

    /// ρ = 0.99998 passes the per-link stability check, but the
    /// workload tail needs far more than `MAX_HOP_SUPPORT` points to
    /// hold `1 − 1e-13` mass — the engine must refuse at construction
    /// instead of truncating (a truncated workload understated
    /// the hop moments and tripped `normalize_pmf`'s round-off
    /// assertion in `waiting_pmf`).
    #[test]
    fn near_critical_multi_stream_load_is_refused() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let out = g.add_link(a, None);
        g.add_flow(a, a, 0.49999, vec![out]).unwrap();
        g.add_flow(a, a, 0.49999, vec![out]).unwrap();
        let err = FlowAnalysis::new(&g).unwrap_err();
        assert!(err.contains("load too heavy"), "{err}");
    }

    #[test]
    fn pmf_moments_track_the_laws() {
        let g = line(0.5, 1);
        let an = FlowAnalysis::new(&g).unwrap();
        let pmf = an.waiting_pmf(0).unwrap();
        let total: f64 = pmf.iter().sum();
        assert_eq!(total.to_bits(), 1.0f64.to_bits());
        let (mean, var) = pmf_mean_var(&pmf);
        // Depth 1 is exact; depth 2 is a gamma rounded to the integer
        // grid (P(j) = F(j+½) − F(j−½)), which for a heavily
        // zero-skewed hop wait pulls the grid mean below the continuous
        // one by up to ~0.1 cycle — the same continuity-correction
        // convention the KS gauges use on both sides, so densities stay
        // comparable even though raw moments shift slightly.
        assert!((mean - an.mean_wait(0)).abs() < 0.1, "{mean}");
        assert!((var - an.var_wait(0)).abs() < 0.3, "{var}");
    }
}
