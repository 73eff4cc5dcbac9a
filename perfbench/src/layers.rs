//! The per-layer table: before/after differences of the counters and
//! histograms the program already exposes, combined with the benchmark's
//! own spans from the traced slices.

use cbs_core::CouchbaseCluster;
use cbs_obs::RegistrySnapshot;

use crate::run::{engines, ThreadOut};
use crate::stats::ratio;
use crate::stream::Class;

/// Everything read from the program at one instant.
#[derive(Default)]
pub struct Snap {
    reg: RegistrySnapshot,
    obs: RegistrySnapshot,
    /// Cache: hits, misses, evictions, items, resident items, bytes used.
    cache: [u64; 6],
    /// Storage: file bytes, stale bytes, compactions.
    storage: [u64; 3],
}

impl Snap {
    /// Read every registry, cache and store in the cluster.
    pub fn take(cluster: &CouchbaseCluster) -> Snap {
        let mut cache = [0u64; 6];
        let mut storage = [0u64; 3];
        for e in engines(cluster) {
            let c = e.cache_stats();
            for (a, b) in cache.iter_mut().zip([
                c.hits,
                c.misses,
                c.evictions,
                c.items,
                c.resident_items,
                c.mem_used as u64,
            ]) {
                *a += b;
            }
            for (_, s) in e.storage_stats() {
                storage[0] += s.file_bytes;
                storage[1] += s.stale_bytes;
                storage[2] += s.compactions;
            }
        }
        Snap {
            reg: cluster.stats().merged(),
            obs: cluster.inner().trace_store().registry().snapshot(),
            cache,
            storage,
        }
    }

    fn counter(&self, later: &Snap, name: &str) -> f64 {
        let r = |s: &Snap| {
            if name.starts_with("obs.") {
                s.obs.counter(name)
            } else {
                s.reg.counter(name)
            }
        };
        r(later).saturating_sub(r(self)) as f64
    }

    /// (sum ns, count) recorded into histogram `name` between the snaps.
    fn hist(&self, later: &Snap, name: &str) -> (f64, f64) {
        let (a, b) = (self.reg.histogram(name), later.reg.histogram(name));
        let total = |h: &cbs_obs::HistogramSnapshot| {
            h.mean().map_or(0.0, |m| m.as_nanos() as f64 * h.count() as f64)
        };
        ((total(&b) - total(&a)).max(0.0), b.count().saturating_sub(a.count()) as f64)
    }
}

/// One per-layer metric value.
pub struct Metric {
    /// Metric name (`layer.metric`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (0 when not applicable).
    pub value: f64,
    /// False when the workload does not exercise what the metric measures.
    pub applicable: bool,
}

/// Inputs measured outside the program.
pub struct Window<'a> {
    /// The merged client-thread results.
    pub out: &'a ThreadOut,
    /// Window seconds.
    pub secs: f64,
    /// Host steal fraction during the window.
    pub steal_frac: f64,
    /// Host busy fraction during the window.
    pub cpu_util: f64,
    /// Flusher threads in the cluster (nodes × shards).
    pub flusher_threads: f64,
}

/// Op classes that are plain `Bucket` KV calls.
const KV: [Class; 3] = [Class::Read, Class::Update, Class::Insert];

/// Compute the per-layer table from the snaps around the window.
pub fn table(before: &Snap, after: &Snap, w: &Window<'_>) -> Vec<Metric> {
    let out = w.out;
    let n = |c: Class| out.samples[c.index()].len() as f64;
    let ops = out.attempted() as f64;
    let reads = n(Class::Read);
    let writes = [Class::Update, Class::Insert, Class::Replicate, Class::Persist]
        .into_iter()
        .map(n)
        .sum::<f64>();
    let queries = n(Class::Scan);
    let c = |name: &str| before.counter(after, name);
    let d = |i: usize| after.cache[i].saturating_sub(before.cache[i]) as f64;
    let us = |(sum, count): (f64, f64)| ratio(sum, count) / 1e3;
    let span_us = |(sum, count): (u64, u64)| ratio(sum as f64, count as f64) / 1e3;

    let (get_sum, get_n) = before.hist(after, "kv.engine.get_latency");
    let (set_sum, set_n) = before.hist(after, "kv.engine.set_latency");
    let (fsync_sum, fsyncs) = before.hist(after, "kv.flusher.fsync_latency");
    let service = before.hist(after, "n1ql.query.latency");
    let s = &out.spans;
    let engine_us = us((get_sum + set_sum, get_n + set_n));
    let cycles = c("cluster.replication.cycles");
    let replica_applies = c("kv.engine.replica_applies");
    let flushed = c("kv.flusher.items_flushed");
    let dedup = c("kv.flusher.dedup_writes");
    let minted = c("obs.trace.minted");
    let unsampled = c("obs.trace.unsampled");
    let (hits, misses) = (d(0), d(1));
    let phase = |i: usize| ratio(s.phases[i] as f64, s.queries as f64) / 1e3;
    // Client-side spans are the op latencies themselves, so client and
    // query-service overheads compare the same ops the program counted.
    let mean_us = |classes: &[Class]| {
        let (sum, count) = classes.iter().fold((0u64, 0usize), |(s, c), k| {
            let v = &out.samples[k.index()];
            (s + v.iter().sum::<u64>(), c + v.len())
        });
        ratio(sum as f64, count as f64) / 1e3
    };
    let tput = |i: usize| ratio(out.slice_ops[i] as f64, out.slice_ns[i] as f64 / 1e9);

    let m = |name, unit, value, applicable| Metric { name, unit, value, applicable };
    vec![
        m(
            "client.kv_self_us",
            "us",
            mean_us(&KV) - engine_us,
            KV.into_iter().map(n).sum::<f64>() > 0.0,
        ),
        m("client.failed_ops", "count", out.failed() as f64, true),
        m("obs.traces_minted_per_op", "ratio", ratio(minted, ops), true),
        m("obs.unsampled_frac", "ratio", ratio(unsampled, minted + unsampled), true),
        m("obs.dropped_spans", "count", c("obs.trace.dropped_spans"), true),
        m("kv.get_us", "us", us((get_sum, get_n)), get_n > 0.0),
        m("kv.set_us", "us", us((set_sum, set_n)), set_n > 0.0),
        m("kv.gets_per_op", "ratio", ratio(c("kv.engine.gets"), ops), true),
        m("cache.hit_rate", "ratio", ratio(hits, hits + misses), hits + misses > 0.0),
        m("cache.evictions_per_op", "ratio", ratio(d(2), ops), true),
        m(
            "cache.resident_ratio",
            "ratio",
            ratio(after.cache[4] as f64, after.cache[3] as f64),
            true,
        ),
        m("cache.mem_used_mb", "MB", after.cache[5] as f64 / (1 << 20) as f64, true),
        m(
            "storage.bg_fetches_per_read",
            "ratio",
            ratio(c("kv.engine.bg_fetches"), reads),
            reads > 0.0,
        ),
        m(
            "storage.compactions",
            "count",
            after.storage[2].saturating_sub(before.storage[2]) as f64,
            true,
        ),
        m(
            "storage.stale_frac",
            "ratio",
            ratio(after.storage[1] as f64, after.storage[0] as f64),
            true,
        ),
        m("flusher.fsyncs_per_kwrite", "ratio", ratio(fsyncs, writes / 1e3), writes > 0.0),
        m("flusher.items_per_fsync", "ratio", ratio(flushed, fsyncs), fsyncs > 0.0),
        m("flusher.fsync_us", "us", us((fsync_sum, fsyncs)), fsyncs > 0.0),
        m(
            "flusher.fsync_busy_frac",
            "ratio",
            ratio(fsync_sum / 1e9, w.secs * w.flusher_threads),
            true,
        ),
        m("flusher.dedup_frac", "ratio", ratio(dedup, dedup + flushed), dedup + flushed > 0.0),
        m("flusher.persist_wait_us", "us", span_us(s.persist_wait), s.persist_wait.1 > 0),
        m("replication.cycles_per_s", "1/s", ratio(cycles, w.secs), true),
        m("replication.items_per_cycle", "ratio", ratio(replica_applies, cycles), cycles > 0.0),
        m(
            "replication.replica_applies_per_write",
            "ratio",
            ratio(replica_applies, writes),
            writes > 0.0,
        ),
        m("replication.catchup_us", "us", span_us(s.catchup), s.catchup.1 > 0),
        m(
            "index.items_applied_per_write",
            "ratio",
            ratio(c("index.manager.items_applied"), writes),
            writes > 0.0,
        ),
        m(
            "index.scans_per_query",
            "ratio",
            ratio(c("index.manager.scans"), queries),
            queries > 0.0,
        ),
        m("index.scan_us", "us", phase(1) + phase(2), s.queries > 0),
        m("n1ql.plan_us", "us", phase(0), s.queries > 0),
        m("n1ql.primary_scan_us", "us", phase(2), s.queries > 0),
        m("n1ql.fetch_us", "us", phase(3), s.queries > 0),
        m("n1ql.run_us", "us", phase(4), s.queries > 0),
        m("n1ql.service_us", "us", us(service), service.1 > 0.0),
        m(
            "n1ql.plancache_hit_rate",
            "ratio",
            ratio(c("n1ql.plancache.hits"), c("n1ql.plancache.hits") + c("n1ql.plancache.misses")),
            queries > 0.0,
        ),
        m("n1ql.outside_service_us", "us", mean_us(&[Class::Scan]) - us(service), queries > 0.0),
        m("host.steal_frac", "ratio", w.steal_frac, true),
        m("host.cpu_util", "ratio", w.cpu_util, true),
        m(
            "bench.trace_overhead_frac",
            "ratio",
            1.0 - ratio(tput(1), tput(0)),
            out.slice_ops[1] > 0,
        ),
    ]
    .into_iter()
    .map(|x| if x.applicable { x } else { Metric { value: 0.0, ..x } })
    .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The table's metric names, from an empty measurement.
    pub fn names() -> Vec<(&'static str, &'static str)> {
        let out = ThreadOut::default();
        let w =
            Window { out: &out, secs: 1.0, steal_frac: 0.0, cpu_util: 0.0, flusher_threads: 1.0 };
        table(&Snap::default(), &Snap::default(), &w).iter().map(|m| (m.name, m.unit)).collect()
    }

    #[test]
    fn empty_measurement_marks_rates_not_applicable() {
        let out = ThreadOut::default();
        let w =
            Window { out: &out, secs: 1.0, steal_frac: 0.0, cpu_util: 0.0, flusher_threads: 1.0 };
        for m in table(&Snap::default(), &Snap::default(), &w) {
            assert!(m.value.is_finite(), "{}", m.name);
            if !m.applicable {
                assert_eq!(m.value, 0.0, "{}", m.name);
            }
        }
        assert!(names().iter().any(|(n, _)| *n == "cache.hit_rate"));
    }
}
