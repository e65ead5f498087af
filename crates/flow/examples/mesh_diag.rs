//! Scratch diagnostic: per-link and per-flow sim-vs-analytic waits on
//! the 2×2 mesh acceptance instance.

use banyan_flow::{mesh, simulate_network, FlowAnalysis, FlowSimConfig};
use banyan_obs::tail::ks_distance;

fn main() {
    let g = mesh(2, 2, 0.5, 1);
    let an = FlowAnalysis::new(&g).unwrap();
    let rep = simulate_network(
        &g,
        &FlowSimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 40_000,
            reps: 4,
            seed: 42,
        },
    );
    println!("-- links (model = tagged-stream mixture) --");
    for (l, sk) in rep.links.iter().enumerate() {
        if sk.total() == 0 {
            continue;
        }
        let node = &g.nodes()[g.links()[l].from];
        let lambda = an.link_rate(l);
        let streams = an.link_streams(l);
        let mix: f64 = streams
            .iter()
            .map(|&r| {
                let h = banyan_flow::HopParams {
                    link: l,
                    depth: an.link_depth(l),
                    fan_in: node.fan_in,
                    lambda,
                    m: 1,
                    own_stream: r,
                };
                (r / lambda) * an.hop_moments(&h).0
            })
            .sum();
        println!(
            "link {l:2} from {:6} depth {} lambda {:.3} streams {:?} | sim mean {:.4} var {:.4} | model mix mean {:.4}",
            node.name,
            an.link_depth(l),
            lambda,
            streams,
            sk.mean(),
            sk.variance(),
            mix,
        );
    }
    println!("-- flows --");
    for (f, sk) in rep.flows.iter().enumerate() {
        let table = an.wait_cdf_table(f).unwrap();
        let ks = ks_distance(sk, |x| banyan_obs::tail::table_cdf(&table, x));
        let fl = &g.flows()[f];
        println!(
            "flow {f:2} {}->{} hops {} | sim mean {:.4} var {:.4} | model mean {:.4} var {:.4} | KS {:.4}",
            fl.src,
            fl.dst,
            fl.path.len(),
            sk.mean(),
            sk.variance(),
            an.mean_wait(f),
            an.var_wait(f),
            ks
        );
    }
}
