//! The routed-DAG model: nodes with per-node service, directed links
//! (output ports), and flows with explicit paths.
//!
//! A [`FlowGraph`] is *not* a banyan: it is any network whose queueing
//! points are the output ports of its nodes. Each [`Link`] is one such
//! port — the queue lives at the link, contended by the traffic of every
//! [`Flow`] routed over it. The banyan of the paper is the special case
//! where the nodes are `k × k` switches arranged in stages and every
//! flow's path crosses one link per stage.
//!
//! Two derived quantities drive the analytic engine:
//!
//! * **link rates** — the per-cycle message rate on each link is the sum
//!   of the rates of the flows routed over it ([`FlowGraph::link_rates`]),
//!   the feed-forward analogue of the paper's per-port load `p`;
//! * **link depths** — how many queueing points traffic has already
//!   crossed when it reaches a link ([`FlowGraph::link_depths`]). Depth 1
//!   links see fresh (Bernoulli) arrivals and get the exact Theorem 1
//!   law; deeper links see smoothed departure processes and get the §IV
//!   stage-`i` laws. Depth is the longest chain in the *link precedence
//!   DAG* (link `a` precedes link `b` when some flow crosses `a`
//!   immediately before `b`), which must be acyclic — the "feed-forward"
//!   in the crate name.

use banyan_sim::traffic::ServiceDist;

/// Index of a node in its [`FlowGraph`].
pub type NodeId = usize;
/// Index of a link (output port) in its [`FlowGraph`].
pub type LinkId = usize;
/// Index of a flow in its [`FlowGraph`].
pub type FlowId = usize;

/// A switching element: `fan_in` input ports feeding its output ports,
/// each transmission drawn from `service`.
///
/// `fan_in` is the *modeling* arity: the analytic engine assumes each of
/// the node's output ports receives `Binomial(fan_in, λ/fan_in)` arrivals
/// per cycle, exactly like a `fan_in × fan_in` switch in the paper. A
/// mesh router with two incoming mesh links and one injection port has
/// `fan_in = 3` even though its degree bookkeeping never appears
/// explicitly in the graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable name (used in errors and reports).
    pub name: String,
    /// Number of input ports contending for each output port (≥ 2).
    pub fan_in: u32,
    /// Transmission-time distribution for messages leaving this node.
    pub service: ServiceDist,
}

/// One output port of `from`: the queueing point of the model.
///
/// `to` is the node the port feeds, or `None` for an ejection port
/// (traffic leaves the network after this queue).
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// The node whose output port this is.
    pub from: NodeId,
    /// Downstream node, or `None` for an ejection port.
    pub to: Option<NodeId>,
}

/// A routed traffic stream: `rate` messages per cycle injected at `src`,
/// following `path` (a chain of links) to `dst`.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Node where the flow enters the network.
    pub src: NodeId,
    /// Node where the flow leaves the network.
    pub dst: NodeId,
    /// Per-cycle injection probability (Bernoulli).
    pub rate: f64,
    /// The links crossed, in order. Every element queues the flow once.
    pub path: Vec<LinkId>,
}

/// A feed-forward routed network: nodes, links, and flows.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    flows: Vec<Flow>,
}

impl FlowGraph {
    /// An empty graph.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    /// Panics on `fan_in < 2` (the paper's switch laws need at least two
    /// contending inputs) or an invalid service distribution.
    pub fn add_node(&mut self, name: impl Into<String>, fan_in: u32, service: ServiceDist) -> NodeId {
        assert!(fan_in >= 2, "node fan-in must be at least 2");
        service.validate().unwrap_or_else(|e| panic!("{e}"));
        self.nodes.push(Node {
            name: name.into(),
            fan_in,
            service,
        });
        self.nodes.len() - 1
    }

    /// Adds an output port of `from` feeding `to` (or ejecting on
    /// `None`) and returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range node ids.
    pub fn add_link(&mut self, from: NodeId, to: Option<NodeId>) -> LinkId {
        assert!(from < self.nodes.len(), "link source node out of range");
        if let Some(t) = to {
            assert!(t < self.nodes.len(), "link target node out of range");
        }
        self.links.push(Link { from, to });
        self.links.len() - 1
    }

    /// Adds a routed flow after validating its path: the rate is a
    /// probability, the path is non-empty, starts at `src`, chains
    /// link-to-node contiguously, and ends at `dst` (either on an
    /// ejection port of `dst` or on a link into `dst`).
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rate: f64,
        path: Vec<LinkId>,
    ) -> Result<FlowId, String> {
        if src >= self.nodes.len() || dst >= self.nodes.len() {
            return Err("flow endpoint node out of range".into());
        }
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("flow rate {rate} must be a probability"));
        }
        if path.is_empty() {
            return Err("flow path must cross at least one link".into());
        }
        for &l in &path {
            if l >= self.links.len() {
                return Err(format!("flow path references unknown link {l}"));
            }
        }
        if self.links[path[0]].from != src {
            return Err(format!(
                "flow path starts at node {}, not its source {src}",
                self.links[path[0]].from
            ));
        }
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            if self.links[a].to != Some(self.links[b].from) {
                return Err(format!("flow path breaks between links {a} and {b}"));
            }
        }
        let last = *path.last().expect("non-empty path");
        let reaches_dst = match self.links[last].to {
            None => self.links[last].from == dst,
            Some(t) => t == dst,
        };
        if !reaches_dst {
            return Err(format!("flow path does not end at destination {dst}"));
        }
        self.flows.push(Flow {
            src,
            dst,
            rate,
            path,
        });
        Ok(self.flows.len() - 1)
    }

    /// All nodes, by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, by id.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All flows, by id.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Aggregated per-link message rates: `λ_l = Σ_{flows f ∋ l} rate_f`,
    /// accumulated in flow-insertion order (deterministic, and a
    /// single-term sum — hence bit-exact — when one flow owns the link,
    /// as in a banyan under a permutation).
    pub fn link_rates(&self) -> Vec<f64> {
        let mut rates = vec![0.0; self.links.len()];
        for f in &self.flows {
            for &l in &f.path {
                rates[l] += f.rate;
            }
        }
        rates
    }

    /// Per-link depths in the flow-induced link precedence DAG: depth 1
    /// for links no flow enters from another link, otherwise one more
    /// than the deepest immediate predecessor. Links carrying no flow
    /// get depth 1.
    ///
    /// Fails when the precedence relation has a cycle — the network is
    /// not feed-forward under the given routing (note the *physical*
    /// graph may still contain cycles, e.g. a mesh: XY routing keeps the
    /// precedence relation acyclic).
    pub fn link_depths(&self) -> Result<Vec<u32>, String> {
        let n = self.links.len();
        // Deduplicated successor lists + indegrees of the precedence DAG.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in &self.flows {
            for w in f.path.windows(2) {
                succ[w[0]].push(w[1]);
            }
        }
        let mut indeg = vec![0usize; n];
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
            for &t in s.iter() {
                indeg[t] += 1;
            }
        }
        // Kahn topological pass, relaxing longest-path depths.
        let mut depth = vec![1u32; n];
        let mut queue: Vec<usize> = (0..n).filter(|&l| indeg[l] == 0).collect();
        let mut seen = queue.len();
        let mut head = 0;
        while head < queue.len() {
            let l = queue[head];
            head += 1;
            for &t in &succ[l] {
                depth[t] = depth[t].max(depth[l] + 1);
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                    seen += 1;
                }
            }
        }
        if seen < n {
            return Err("routing is not feed-forward: link precedence has a cycle".into());
        }
        Ok(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_line() -> FlowGraph {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let b = g.add_node("b", 2, ServiceDist::unit());
        let ab = g.add_link(a, Some(b));
        let out = g.add_link(b, None);
        g.add_flow(a, b, 0.3, vec![ab, out]).unwrap();
        g
    }

    #[test]
    fn rates_aggregate_over_shared_links() {
        let mut g = two_switch_line();
        // A second flow sharing only the ejection port.
        g.add_flow(1, 1, 0.25, vec![1]).unwrap();
        assert_eq!(g.link_rates(), vec![0.3, 0.55]);
    }

    #[test]
    fn depths_follow_path_order() {
        let g = two_switch_line();
        assert_eq!(g.link_depths().unwrap(), vec![1, 2]);
    }

    #[test]
    fn depth_is_longest_precedence_chain() {
        // Ejection port reached both directly (depth-1 chain) and after
        // a transit link: depth is the longest chain, so 2.
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let b = g.add_node("b", 2, ServiceDist::unit());
        let ab = g.add_link(a, Some(b));
        let out = g.add_link(b, None);
        g.add_flow(b, b, 0.1, vec![out]).unwrap();
        g.add_flow(a, b, 0.1, vec![ab, out]).unwrap();
        assert_eq!(g.link_depths().unwrap(), vec![1, 2]);
    }

    #[test]
    fn cyclic_routing_is_rejected() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let b = g.add_node("b", 2, ServiceDist::unit());
        let ab = g.add_link(a, Some(b));
        let ba = g.add_link(b, Some(a));
        let out = g.add_link(a, None);
        // a→b→a→eject and b→a→b→… is fine per flow, but together the
        // precedence relation ab→ba→ab closes a cycle.
        g.add_flow(a, a, 0.1, vec![ab, ba, out]).unwrap();
        let bout = g.add_link(b, None);
        g.add_flow(b, b, 0.1, vec![ba, ab, bout]).unwrap();
        assert!(g.link_depths().unwrap_err().contains("cycle"));
    }

    #[test]
    fn bad_paths_are_rejected() {
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let b = g.add_node("b", 2, ServiceDist::unit());
        let ab = g.add_link(a, Some(b));
        let out = g.add_link(b, None);
        assert!(g.add_flow(a, b, 0.1, vec![]).is_err());
        assert!(g.add_flow(b, b, 0.1, vec![ab, out]).is_err()); // wrong src
        assert!(g.add_flow(a, a, 0.1, vec![ab, out]).is_err()); // wrong dst
        assert!(g.add_flow(a, b, 0.1, vec![out, ab]).is_err()); // broken chain
        assert!(g.add_flow(a, b, 1.5, vec![ab, out]).is_err()); // bad rate
    }
}
