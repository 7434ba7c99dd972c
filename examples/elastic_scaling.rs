//! Elasticity demo (§III-C, Figure 9): drive the simulated deployment
//! through a rush-hour surge with the load-driven autoscaler in charge.
//! The controller watches the gossiped `(queue, λ, µ)` reports, adds
//! matchers while mean pressure sits above the high watermark, and
//! gracefully drains the coldest matcher back out once the surge
//! recedes — no manual `add_matcher` calls anywhere.
//!
//! ```sh
//! cargo run --release --example elastic_scaling
//! ```

use bluedove::core::AdaptivePolicy;
use bluedove::engine::AutoscalerConfig;
use bluedove::sim::{SimCluster, SimConfig, Strategy};
use bluedove::workload::PaperWorkload;

fn main() {
    let workload = PaperWorkload {
        seed: 13,
        ..Default::default()
    };
    let space = workload.space();
    let mut cluster = SimCluster::new(
        SimConfig::default(),
        space.clone(),
        Strategy::bluedove(space, 3),
        Box::new(AdaptivePolicy),
    );
    cluster.subscribe_all(workload.subscriptions().take(8_000));
    cluster.enable_autoscaler(AutoscalerConfig {
        min_matchers: 3,
        max_matchers: 12,
        ..Default::default()
    });
    let mut gen = workload.messages();

    println!(
        "{:>6} {:>10} {:>14} {:>9} {:>9}",
        "t(s)", "rate/s", "response(ms)", "backlog", "matchers"
    );
    let slice = 5.0;
    let mut rate = 500.0;
    let mut peak = 0.0f64;
    for tick in 0..24 {
        cluster.run(rate, slice, &mut gen);
        let t = cluster.now();
        let resp = cluster.metrics.mean_response(t - slice, t) * 1e3;
        println!(
            "{:>6.0} {:>10.0} {:>14.2} {:>9} {:>9}",
            t,
            rate,
            resp,
            cluster.backlog(),
            cluster.live_matchers()
        );
        // Rush hour: ramp for 30 s, hold the peak, then traffic recedes
        // and the autoscaler hands the extra capacity back.
        if tick < 6 {
            rate *= 1.25;
            peak = rate;
        } else if tick >= 11 {
            rate = peak * 0.2;
        }
    }
    println!("scale events: {:?}", cluster.control().scale_events());
    println!(
        "final: {} live matchers, {} messages delivered, {} lost",
        cluster.live_matchers(),
        cluster.metrics.total_delivered,
        cluster.metrics.total_lost
    );
}
