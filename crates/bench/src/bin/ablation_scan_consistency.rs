//! Ablation A2 (§3.2.3 "Query Scan Consistency"): `not_bounded` vs
//! `request_plus` N1QL latency under a concurrent write load.
//!
//! "not_bounded [...] returns the query with the lowest latency [...]
//! request_plus provides the strictest consistency level and thus executes
//! with higher latencies than the other levels" — because the query must
//! wait for the index to catch up to the seqno vector snapshotted at
//! admission.
//!
//! Shape check: request_plus p50/p95 > not_bounded p50/p95 while a writer
//! keeps the index permanently behind.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cbs_bench::{env_u64, print_header, small_cluster};
use cbs_core::{QueryOptions, Value};
use cbs_obs::Histogram;

fn main() {
    let queries = env_u64("CBS_OPS", 300);
    let cluster = small_cluster(2, 0);
    cluster.create_bucket("default").expect("bucket");
    let bucket = cluster.bucket("default").expect("handle");
    for i in 0..2_000 {
        bucket.upsert(&format!("d{i}"), Value::object([("n", Value::int(i))])).expect("seed");
    }
    cluster.query("CREATE INDEX n_idx ON default(n)", &QueryOptions::default()).expect("index");

    // Background writer keeps mutations flowing so request_plus always has
    // something to wait for. Throttled so the measurement isn't starved on
    // small hosts — the point is the catch-up wait, not CPU contention.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let bucket = cluster.bucket("default").expect("handle");
        std::thread::spawn(move || {
            let mut i = 2_000i64;
            while !stop.load(Ordering::Relaxed) {
                bucket
                    .upsert(&format!("d{i}"), Value::object([("n", Value::int(i))]))
                    .expect("write");
                i += 1;
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            i - 2_000
        })
    };

    println!("Ablation A2: scan_consistency=not_bounded vs request_plus under write load");
    print_header("scan consistency ablation", &["consistency", "mean", "p50", "p95", "p99"]);
    let statement = "SELECT COUNT(*) AS n FROM default WHERE n >= 500";
    let mut results = Vec::new();
    for (name, opts) in [
        ("not_bounded", QueryOptions::default()),
        ("request_plus", QueryOptions::default().request_plus()),
    ] {
        let hist = Histogram::new();
        for _ in 0..queries {
            let start = Instant::now();
            cluster.query(statement, &opts).expect("query");
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
        results.push((name, mean));
    }
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("writer");
    println!("\nbackground writes during measurement: {writes}");
    println!(
        "shape: request_plus mean ({:?}) > not_bounded mean ({:?}) — the index catch-up wait (§3.2.3)",
        results[1].1, results[0].1
    );
}
