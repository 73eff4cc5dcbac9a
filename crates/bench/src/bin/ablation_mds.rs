//! Ablation A6 (§4.4 "Multi-dimensional Scaling"): co-located vs separated
//! services under a mixed KV + query workload.
//!
//! "This allows Couchbase users to scale workloads independently based on
//! their needs." With everything co-located, an expensive query workload
//! steals cycles from the KV front-end; separating the query/index
//! services onto their own nodes protects KV tail latency — the "protect
//! the front-end" principle of §2.2.
//!
//! Shape check: KV p99 with separated services ≤ KV p99 co-located, under
//! the same concurrent query pressure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbs_bench::{env_u64, print_header};
use cbs_core::{ClusterConfig, CouchbaseCluster, QueryOptions, ServiceSet, Value};
use cbs_obs::{Histogram, HistogramSnapshot};

fn run_topology(name: &str, services: Vec<ServiceSet>, kv_ops: u64) -> (String, HistogramSnapshot) {
    let cluster = CouchbaseCluster::with_services(services, ClusterConfig::for_test(128, 0));
    cluster.create_bucket("default").expect("bucket");
    let bucket = cluster.bucket("default").expect("handle");
    for i in 0..5_000 {
        bucket.upsert(&format!("d{i}"), Value::object([("n", Value::int(i))])).expect("seed");
    }
    cluster.query("CREATE PRIMARY INDEX ON default", &QueryOptions::default()).expect("pk");

    // Query pressure: threads running expensive full scans.
    let stop = Arc::new(AtomicBool::new(false));
    let mut queriers = Vec::new();
    for _ in 0..4 {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        queriers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = cluster.query(
                    "SELECT COUNT(*) AS n FROM default WHERE n % 7 = 3",
                    &QueryOptions::default(),
                );
            }
        }));
    }

    // Foreground KV workload.
    let hist = Histogram::new();
    for i in 0..kv_ops {
        let key = format!("d{}", i % 5_000);
        let t = Instant::now();
        bucket.get(&key).expect("get");
        hist.record(t.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    for q in queriers {
        let _ = q.join();
    }
    (name.to_string(), hist.snapshot())
}

fn main() {
    let kv_ops = env_u64("CBS_OPS", 20_000);
    println!("Ablation A6: MDS — KV latency under concurrent heavy queries ({kv_ops} gets)");
    print_header("topologies", &["topology", "kv mean", "kv p95", "kv p99"]);

    let results = vec![
        run_topology("co-located (4x all services)", vec![ServiceSet::all(); 4], kv_ops),
        run_topology(
            "separated (2x data, 1x index, 1x query)",
            vec![
                ServiceSet::data_only(),
                ServiceSet::data_only(),
                ServiceSet::index_only(),
                ServiceSet::query_only(),
            ],
            kv_ops,
        ),
    ];
    for (name, hist) in &results {
        println!(
            "{name}\t{:?}\t{:?}\t{:?}",
            hist.mean().unwrap_or_default(),
            hist.percentile(95.0).unwrap_or_default(),
            hist.percentile(99.0).unwrap_or_default()
        );
    }
    println!("\nshape: separating services isolates the KV front-end from query load (§4.4, §2.2)");
}
