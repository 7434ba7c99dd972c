//! The metric catalogue, and one run's metrics as a table, as the result
//! line and as a schema-checked report.

use crate::harness::{LiveRun, Reading};
use crate::replay::Values;
use crate::stats;
use bluedove::bench_support::json::{self, Json};
use bluedove::bench_support::trajectory;

/// `(name, unit)`. Direction and bound live in `BENCHMARK.json`; a unit
/// test holds the two lists to each other.
pub const END_TO_END: [(&str, &str); 5] = [
    ("capacity_msgs_s", "msg/s"),
    ("cpu_us_per_msg", "us"),
    ("paced_p50_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

pub const PER_LAYER: [(&str, &str); 85] = [
    // net::wire
    ("wire.publish_encode_ns", "ns"),
    ("wire.publish_decode_ns", "ns"),
    ("wire.deliver_encode_ns", "ns"),
    ("wire.deliver_decode_ns", "ns"),
    ("wire.batch64_encode_ns_per_msg", "ns"),
    ("wire.batch64_decode_ns_per_msg", "ns"),
    ("wire.publish_frame_bytes", "B"),
    ("wire.bytes_per_msg", "B"),
    ("wire.frames_per_msg", "count"),
    // net::transport, net::reactor
    ("channel.send_ns", "ns"),
    ("channel.hop_us_p50", "us"),
    ("reactor.hop_us_p50", "us"),
    ("reactor.hop_us_p99", "us"),
    ("reactor.frames_per_s", "1/s"),
    ("reactor.bind_us", "us"),
    // core::partition, core::policy
    ("partition.candidates_ns", "ns"),
    ("partition.assign_ns", "ns"),
    ("policy.adaptive_choose_ns", "ns"),
    ("policy.estimation_error_us_mean", "us"),
    // engine::dispatcher
    ("dispatcher.publish_ns", "ns"),
    ("dispatcher.publish_noack_ns", "ns"),
    ("dispatcher.ack_ns", "ns"),
    ("dispatcher.subscribe_ns", "ns"),
    ("dispatcher.forward_us_mean", "us"),
    ("dispatcher.failovers", "count"),
    // engine::batch
    ("coalescer.push_ns_1dest", "ns"),
    ("coalescer.push_ns_10kdest", "ns"),
    ("coalescer.poll_ns_10kdest", "ns"),
    ("batch.frames_per_flush_dispatcher", "count"),
    ("batch.frames_per_flush_matcher", "count"),
    // core::index
    ("index.probe_ns.linear", "ns"),
    ("index.probe_ns.cell64", "ns"),
    ("index.probe_ns.itree", "ns"),
    ("index.probe_ns.cov_cell64", "ns"),
    ("index.examined_per_probe.linear", "count"),
    ("index.examined_per_probe.cell64", "count"),
    ("index.examined_per_probe.itree", "count"),
    ("index.examined_per_probe.cov_cell64", "count"),
    ("index.insert_ns.linear", "ns"),
    ("index.insert_ns.cell64", "ns"),
    ("index.insert_ns.itree", "ns"),
    ("index.insert_ns.cov_cell64", "ns"),
    ("index.remove_ns.linear", "ns"),
    ("index.remove_ns.cell64", "ns"),
    ("index.remove_ns.itree", "ns"),
    ("index.remove_ns.cov_cell64", "ns"),
    ("index.bytes_per_sub.linear", "B"),
    ("index.bytes_per_sub.cell64", "B"),
    ("index.bytes_per_sub.itree", "B"),
    ("index.bytes_per_sub.cov_cell64", "B"),
    ("index.covering_ratio", "ratio"),
    // engine::matcher
    ("matcher.service_ns.selective", "ns"),
    ("matcher.service_ns.paper", "ns"),
    ("matcher.hits_per_msg.paper", "count"),
    ("matcher.queue_wait_us_mean", "us"),
    ("matcher.match_us_mean", "us"),
    ("matcher.served_skew", "ratio"),
    ("matcher.queue_depth_max", "count"),
    // delivery
    ("delivery.fanout_per_msg", "count"),
    ("delivery.dropped", "count"),
    ("subscriber.drain_ns_per_delivery", "ns"),
    ("e2e.admit_to_receipt_us_mean", "us"),
    ("transit_us_mean", "us"),
    // cluster::log, cluster::sublog
    ("log.append_us_p50.flush", "us"),
    ("log.append_us_p50.always", "us"),
    ("log.append_us_p50.never", "us"),
    ("log.append_us_p99.always", "us"),
    ("log.replay_records_per_s", "1/s"),
    ("sublog.appended", "count"),
    ("sublog.replicated", "count"),
    // reliability
    ("reliability.retried_per_msg", "ratio"),
    ("reliability.duplicates_suppressed", "count"),
    ("reliability.dead_lettered", "count"),
    // overlay, telemetry
    ("gossip.bytes_per_s", "B/s"),
    ("telemetry.observe_ns", "ns"),
    // sim
    ("sim.predicted_capacity_msgs_s", "msg/s"),
    ("sim.capacity_ratio", "ratio"),
    ("sim.msgs_per_wall_s", "1/s"),
    // harness
    ("gen.lag_p99_us", "us"),
    ("gen.publish_call_ns", "ns"),
    ("paced_p99_us", "us"),
    ("sub_ack_p50_us", "us"),
    ("capacity_lat_p50_us", "us"),
    ("collector.sweep_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// One reported value with what it summarises.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
    pub min: f64,
    pub max: f64,
}

fn of_samples(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples: samples.len() as u64,
        min: samples.iter().copied().fold(value, f64::min),
        max: samples.iter().copied().fold(value, f64::max),
    }
}

fn unit_of(catalogue: &[(&str, &'static str)], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &LiveRun) -> Vec<Metric> {
    let unit = |name| unit_of(&END_TO_END, name);
    let latency = |name: &'static str, lat: &crate::harness::Latencies| {
        let us = |ns: Option<&u32>| ns.map_or(0.0, |&n| f64::from(n) / 1e3);
        Metric {
            name: name.to_string(),
            unit: unit(name),
            value: lat.pct_us(50.0),
            samples: lat.0.len() as u64,
            min: us(lat.0.first()),
            max: us(lat.0.last()),
        }
    };
    let one = |name: &'static str, value: f64| of_samples(name, unit(name), value, &[value]);
    vec![
        of_samples(
            "capacity_msgs_s",
            unit("capacity_msgs_s"),
            stats::median(&run.untraced_rates),
            &run.untraced_rates,
        ),
        one("cpu_us_per_msg", run.cpu_us_per_msg),
        latency("paced_p50_us", &run.paced_lat),
        of_samples(
            "setup_s",
            unit("setup_s"),
            stats::median(&run.setup_s),
            &run.setup_s,
        ),
        one("rss_peak_mb", run.rss_peak_mib),
    ]
}

fn mean_between(before: (f64, f64), after: (f64, f64)) -> f64 {
    let n = after.1 - before.1;
    if n > 0.0 {
        (after.0 - before.0) / n
    } else {
        0.0
    }
}

/// The live per-layer readings of a traced run. Counts and ratios are
/// taken over the capacity phase (start to quiesced, so nothing is in
/// flight at either end); stage means over the paced phase, where they
/// say what `paced_p50_us` is made of rather than how deep the closed
/// loop keeps the queues.
pub fn live_values(run: &LiveRun) -> Values {
    let (a, b, c): (&Reading, &Reading, &Reading) = (&run.before, &run.between, &run.after);
    let msgs = b.published - a.published;
    let forward = mean_between(b.forward, c.forward);
    let queue_wait = mean_between(b.queue_wait, c.queue_wait);
    let match_time = mean_between(b.match_time, c.match_time);
    let served: Vec<f64> = b.served.iter().zip(&a.served).map(|(x, y)| x - y).collect();
    let served_mean = served.iter().sum::<f64>() / served.len().max(1) as f64;
    let skew = if served_mean > 0.0 {
        served.iter().copied().fold(0.0, f64::max) / served_mean
    } else {
        0.0
    };
    let base = stats::median(&run.untraced_rates);
    let overhead = if base > 0.0 {
        stats::median(&run.traced_rates) / base
    } else {
        0.0
    };
    let v = |name: &str, value: f64| (name.to_string(), value);
    vec![
        v("wire.bytes_per_msg", (b.bytes - a.bytes) / msgs),
        v("wire.frames_per_msg", (b.frames - a.frames) / msgs),
        v(
            "policy.estimation_error_us_mean",
            mean_between(b.est_error, c.est_error),
        ),
        v("dispatcher.forward_us_mean", forward),
        v("dispatcher.failovers", b.failovers - a.failovers),
        v(
            "batch.frames_per_flush_dispatcher",
            mean_between(a.batch_dispatcher, b.batch_dispatcher),
        ),
        v(
            "batch.frames_per_flush_matcher",
            mean_between(a.batch_matcher, b.batch_matcher),
        ),
        v("matcher.queue_wait_us_mean", queue_wait),
        v("matcher.match_us_mean", match_time),
        v("matcher.served_skew", skew),
        v("matcher.queue_depth_max", run.queue_depth_max as f64),
        v("delivery.fanout_per_msg", run.fanout),
        v("delivery.dropped", b.dropped - a.dropped),
        v(
            "subscriber.drain_ns_per_delivery",
            run.drain_ns_per_delivery,
        ),
        // The registry's family is observed when an endpoint is drained, so
        // for background endpoints it includes the wait for the collector's
        // round-robin sweep; transit below is taken at the tap instead.
        v("e2e.admit_to_receipt_us_mean", mean_between(b.e2e, c.e2e)),
        // Publish call → tap receipt, less the stages the cluster times
        // itself: publisher→dispatcher hop, coalescer wait, transport,
        // deliver encode, endpoint decode.
        v(
            "transit_us_mean",
            run.paced_lat.mean_us() - forward - queue_wait - match_time,
        ),
        v("sublog.appended", b.sublog_appended - a.sublog_appended),
        v(
            "sublog.replicated",
            b.sublog_replicated - a.sublog_replicated,
        ),
        v(
            "reliability.retried_per_msg",
            (b.retried - a.retried) / msgs,
        ),
        v(
            "reliability.duplicates_suppressed",
            b.duplicates - a.duplicates,
        ),
        v(
            "reliability.dead_lettered",
            b.dead_lettered - a.dead_lettered,
        ),
        v(
            "gossip.bytes_per_s",
            (c.gossip_bytes - a.gossip_bytes) / (c.at_s - a.at_s),
        ),
        v("gen.lag_p99_us", run.gen_lag.pct_us(99.0)),
        v("gen.publish_call_ns", run.publish_call_ns),
        v("paced_p99_us", run.paced_lat.pct_us(99.0)),
        v("sub_ack_p50_us", run.sub_ack.pct_us(50.0)),
        v("capacity_lat_p50_us", run.capacity_lat.pct_us(50.0)),
        v("collector.sweep_us", run.sweep_us),
        v("trace.overhead_ratio", overhead),
    ]
}

/// Orders `values` by the catalogue; a metric the catalogue names and the
/// run did not produce is a bug in the harness, not a result.
pub fn per_layer(values: Values) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not produced"))
                .1;
            of_samples(name, unit, value, &[value])
        })
        .collect()
}

/// The stage table of a traced run: where publish→tap time goes at the
/// paced rate.
pub fn stage_table(metrics: &[Metric]) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let stages = [
        ("forward", get("dispatcher.forward_us_mean")),
        ("queue wait", get("matcher.queue_wait_us_mean")),
        ("match", get("matcher.match_us_mean")),
        ("transit", get("transit_us_mean")),
    ];
    let total: f64 = stages.iter().map(|s| s.1).sum();
    let mut out = format!("{:<14} {:>12} {:>8}\n", "paced stage", "us mean", "share");
    for (stage, us) in stages {
        let share = if total > 0.0 { 100.0 * us / total } else { 0.0 };
        out += &format!("{stage:<14} {us:>12.1} {share:>7.1}%\n");
    }
    out + &format!("{:<14} {total:>12.1} {:>7.1}%\n", "publish→tap", 100.0)
}

pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<38} {:>16} {:<6} {:>9} {:>14} {:>14}\n",
        "metric", "value", "unit", "samples", "min", "max"
    );
    for m in metrics {
        out += &format!(
            "{:<38} {:>16.3} {:<6} {:>9} {:>14.3} {:>14.3}\n",
            m.name, m.value, m.unit, m.samples, m.min, m.max
        );
    }
    out
}

/// What one invocation measured, for the result line and the report.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn num(n: f64) -> Json {
    // JSON has no NaN or infinity; a metric that is one is a harness bug
    // the correctness flag already reports.
    Json::Num(if n.is_finite() { n } else { 0.0 })
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result object, on one line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                (m.name.clone(), Json::Obj(entry))
            })
            .collect();
        let doc = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), num(self.attempted as f64)),
            ("failed".to_string(), num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        // The pretty writer never emits a raw newline inside a string, so
        // joining its lines is the same document on one line.
        doc.pretty().lines().map(str::trim_start).collect()
    }

    /// This run as a member of the report's `runs` array.
    pub fn report_entry(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(m.name.clone())),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ("value".to_string(), num(m.value)),
                    ("samples".to_string(), num(m.samples as f64)),
                    ("min".to_string(), num(m.min)),
                    ("max".to_string(), num(m.max)),
                ])
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(self.workload.to_string())),
            ("seed".to_string(), num(self.seed as f64)),
            ("seconds".to_string(), num(self.seconds)),
            ("trace".to_string(), Json::Bool(self.trace)),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), num(self.attempted as f64)),
            ("failed".to_string(), num(self.failed as f64)),
            ("failures".to_string(), strings(&self.failures)),
            ("metrics".to_string(), Json::Arr(metrics)),
        ])
    }
}

/// Wraps run entries into the report document and checks it against
/// `report.schema.json`.
pub fn report(runs: Vec<Json>) -> Result<Json, String> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::Obj(vec![
        ("schema_version".to_string(), num(1.0)),
        ("available_parallelism".to_string(), num(parallelism as f64)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    let schema = json::parse(include_str!("../report.schema.json"))
        .map_err(|e| format!("report.schema.json: {e}"))?;
    let errors = trajectory::validate(&doc, &schema);
    if errors.is_empty() {
        Ok(doc)
    } else {
        Err(format!("report fails its schema: {}", errors.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            workload: "bare_forward",
            seed: 7,
            seconds: 1.5,
            trace: false,
            attempted: 10,
            failed: 0,
            failures: vec![],
            metrics: vec![of_samples("setup_s", "s", 0.25, &[0.2, 0.25, 0.5])],
        }
    }

    #[test]
    fn result_line_is_one_line_of_the_contract_shape() {
        let line = outcome().result_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_failure_or_a_nan_is_not_correct() {
        let mut o = outcome();
        o.failed = 1;
        assert!(!o.correct());
        let mut o = outcome();
        o.metrics[0].value = f64::NAN;
        assert!(!o.correct());
        assert!(json::parse(&o.result_line()).is_ok());
    }

    #[test]
    fn report_validates_and_rejects_a_malformed_run() {
        assert!(report(vec![outcome().report_entry()]).is_ok());
        let bad = Json::Obj(vec![("workload".to_string(), num(3.0))]);
        assert!(report(vec![bad]).is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(ok), "{unit}");
        }
    }

    /// `BENCHMARK.json` at the repo root and the code agree on workloads,
    /// metric names and units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s(a), s(b))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "name", "unit"), own(&END_TO_END));
        assert_eq!(pairs("per_layer", "name", "unit"), own(&PER_LAYER));
        let workloads: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(pairs("workloads", "name", "why"), workloads);
    }
}
