//! Cluster set-up, the closed-loop measurement window, and the checks that
//! follow it.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbs_cluster::{ClusterConfig, Durability};
use cbs_common::{Error, VbId};
use cbs_core::{CouchbaseCluster, QueryOptions, QueryResult};
use cbs_json::{SharedValue, Value};
use cbs_kv::{DataEngine, MutationResult, VbState};

use crate::check::{self, VbCopies};
use crate::spec::{
    Spec, BUCKET, CLIENT_THREADS, DURABLE_TIMEOUT_S, FLUSHER_SHARDS, NODES, REPLICAS,
};
use crate::stream::{digest, scan_limit, Class, Doc, Stream};

/// Traced runs alternate untraced and traced slices of this length, so
/// both modes see the same host conditions.
const SLICE: Duration = Duration::from_millis(250);
/// Length of the sub-windows whose median throughput a run reports.
pub const SUB_WINDOW: Duration = Duration::from_secs(1);
/// How long set-up or the post-window checks wait for the cluster to go
/// quiet before giving up.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(120);
/// Violations kept verbatim (the rest are only counted).
const MAX_REPORTED: usize = 8;

/// A directory removed, with everything under it, when dropped.
pub struct DataDir(pub PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded, quiescent cluster.
pub struct Setup {
    /// The cluster.
    pub cluster: Arc<CouchbaseCluster>,
    /// Seconds from an empty directory to a quiescent, loaded cluster.
    pub secs: f64,
    /// Set-up writes retried after a temporary out-of-memory reply.
    pub load_retries: u64,
}

fn config(spec: &Spec, dir: &Path) -> ClusterConfig {
    // The defaults `ClusterConfig::for_test` uses, but rooted in a
    // directory this run owns and removes.
    ClusterConfig {
        num_vbuckets: cbs_common::NUM_VBUCKETS,
        num_replicas: REPLICAS,
        data_root: dir.to_path_buf(),
        cache_quota: spec.cache_quota,
        eviction: Default::default(),
        flush_interval: Duration::from_millis(10),
        flusher_shards: FLUSHER_SHARDS,
        fragmentation_threshold: 0.6,
        fault_injector: None,
    }
}

fn scan_statement() -> String {
    format!(
        "PREPARE ycsb_scan FROM SELECT meta().id AS id FROM {BUCKET} \
         WHERE meta().id >= $start LIMIT $lim"
    )
}

/// Build the cluster in `dir`, load `docs` (key `i` gets `docs[i]`) with
/// the client threads, and wait until it is quiescent.
pub fn setup(spec: &Spec, docs: &[Doc], keys: &[String], dir: &Path) -> Result<Setup, String> {
    let start = Instant::now();
    let cluster = CouchbaseCluster::homogeneous(NODES, config(spec, dir));
    cluster.create_bucket(BUCKET).map_err(|e| format!("create bucket: {e}"))?;
    if spec.has_index() {
        // The index exists before the load, so the DCP feed maintains it
        // as documents arrive.
        let q = |stmt: &str| {
            cluster.query(stmt, &QueryOptions::default()).map_err(|e| format!("{stmt}: {e}"))
        };
        q(&format!("CREATE PRIMARY INDEX ON {BUCKET}"))?;
        q(&scan_statement())?;
    }
    let retries: Result<u64, String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let cluster = &cluster;
                s.spawn(move || -> Result<u64, String> {
                    let bucket = cluster.bucket(BUCKET).map_err(|e| e.to_string())?;
                    let mut retries = 0u64;
                    for i in (t..docs.len()).step_by(CLIENT_THREADS) {
                        loop {
                            match bucket.upsert(&keys[i], docs[i].value.clone()) {
                                Ok(_) => break,
                                Err(Error::TempOom) if retries < 1_000_000 => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                                Err(e) => return Err(format!("load {}: {e}", keys[i])),
                            }
                        }
                    }
                    Ok(retries)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(Err("loader panicked".into()))).sum()
    });
    let load_retries: u64 = retries?;
    quiesce(&cluster)?;
    if spec.has_index() {
        // A request_plus probe returns only once the index has applied
        // every mutation made so far.
        let probe = QueryOptions::with_named_args([
            ("start", Value::from(keys[0].clone())),
            ("lim", Value::int(1)),
        ])
        .request_plus();
        let res = cluster.query("EXECUTE ycsb_scan", &probe).map_err(|e| format!("probe: {e}"))?;
        if res.rows.len() != 1 {
            return Err(format!("request_plus probe returned {} rows", res.rows.len()));
        }
    }
    Ok(Setup { cluster, secs: start.elapsed().as_secs_f64(), load_retries })
}

/// The bucket's data engine on every node.
pub fn engines(cluster: &CouchbaseCluster) -> Vec<Arc<DataEngine>> {
    cluster.inner().nodes().iter().filter_map(|n| n.engine(BUCKET).ok()).collect()
}

/// Every vBucket's active and replica copies. Storage doc counts are only
/// read when `with_docs` (they cost a store lookup per vBucket).
pub fn vb_copies(cluster: &CouchbaseCluster, with_docs: bool) -> Vec<VbCopies> {
    let n = cbs_common::NUM_VBUCKETS as usize;
    let mut active = vec![None; n];
    let mut replica = vec![None; n];
    for engine in engines(cluster) {
        let live: HashMap<u16, u64> = if with_docs {
            engine.storage_stats().into_iter().map(|(vb, s)| (vb.0, s.live_docs)).collect()
        } else {
            HashMap::new()
        };
        for v in engine.vbucket_stats() {
            let copy =
                (v.high_seqno.0, v.persisted_seqno.0, live.get(&v.vb.0).copied().unwrap_or(0));
            match v.state {
                VbState::Active => active[v.vb.index()] = Some(copy),
                VbState::Replica => replica[v.vb.index()] = Some(copy),
                _ => {}
            }
        }
    }
    (0..n)
        .filter_map(|i| Some(VbCopies { vb: i as u16, active: active[i]?, replica: replica[i]? }))
        .collect()
}

/// Wait until every flusher queue is empty, every copy has persisted what
/// it holds, and every replica's `high_seqno` equals its active's.
pub fn quiesce(cluster: &CouchbaseCluster) -> Result<(), String> {
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    loop {
        let queued: u64 = engines(cluster).iter().map(|e| e.disk_queue_len()).sum();
        let copies = vb_copies(cluster, false);
        let settled = copies.len() == cbs_common::NUM_VBUCKETS as usize
            && check::check_replicas(&copies).is_ok();
        if queued == 0 && settled {
            return Ok(());
        }
        if Instant::now() >= deadline {
            let why = check::check_replicas(&copies).err().unwrap_or_default();
            return Err(format!("not quiescent after {QUIESCE_TIMEOUT:?}: {queued} queued; {why}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sums and counts of the benchmark's own spans (traced slices only).
#[derive(Default)]
pub struct Spans {
    /// `DataEngine::wait_persisted` after a persist op's upsert ack.
    pub persist_wait: (u64, u64),
    /// `SmartClient::observe(replicate_to = 1)` after the upsert ack.
    pub catchup: (u64, u64),
    /// Per-query phase sums from `QueryResult::phases`, ns: plan, index
    /// scan, primary scan, fetch, run.
    pub phases: [u64; 5],
    /// Queries whose phases are summed.
    pub queries: u64,
}

impl Spans {
    fn add(&mut self, o: &Spans) {
        for (a, b) in [(&mut self.persist_wait, o.persist_wait), (&mut self.catchup, o.catchup)] {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.phases.iter_mut().zip(o.phases) {
            *a += b;
        }
        self.queries += o.queries;
    }
}

/// What one client thread did in the window.
#[derive(Default)]
pub struct ThreadOut {
    /// Latency samples (ns) per [`Class::index`].
    pub samples: [Vec<u64>; 6],
    /// Failed ops by error kind.
    pub errors: BTreeMap<String, u64>,
    /// Acked writes: (key, seqno, doc digest, doc user bytes).
    pub acked: Vec<(u32, u64, u64, u64)>,
    /// Writes whose ack failed and may or may not have applied: (key, doc
    /// digest).
    pub unacked: Vec<(u32, u64)>,
    /// Output-check violations seen during the window.
    pub violations: Vec<String>,
    /// Total violations (only the first few are kept).
    pub violation_count: u64,
    /// Ops completed in untraced / traced slices.
    pub slice_ops: [u64; 2],
    /// Wall nanoseconds spent in untraced / traced slices.
    pub slice_ns: [u64; 2],
    /// Ops started in each sub-window of [`SUB_WINDOW`].
    pub per_sub: Vec<u64>,
    /// Benchmark spans from traced slices.
    pub spans: Spans,
    /// When the thread's last op completed.
    pub finished: Option<Instant>,
}

impl ThreadOut {
    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(msg);
        }
    }

    /// Merge the threads' results.
    pub fn merge(outs: Vec<ThreadOut>) -> ThreadOut {
        let mut all = ThreadOut::default();
        for o in outs {
            for (a, b) in all.samples.iter_mut().zip(o.samples) {
                a.extend(b);
            }
            for (k, v) in o.errors {
                *all.errors.entry(k).or_default() += v;
            }
            all.acked.extend(o.acked);
            all.unacked.extend(o.unacked);
            for v in o.violations {
                if all.violations.len() < MAX_REPORTED {
                    all.violations.push(v);
                }
            }
            all.violation_count += o.violation_count;
            for i in 0..2 {
                all.slice_ops[i] += o.slice_ops[i];
                all.slice_ns[i] += o.slice_ns[i];
            }
            all.spans.add(&o.spans);
            if all.per_sub.len() < o.per_sub.len() {
                all.per_sub.resize(o.per_sub.len(), 0);
            }
            for (a, b) in all.per_sub.iter_mut().zip(&o.per_sub) {
                *a += b;
            }
            all.finished = all.finished.max(o.finished);
        }
        for s in &mut all.samples {
            s.sort_unstable();
        }
        all
    }

    /// Ops attempted (completed, successfully or not).
    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }
}

fn error_kind(e: &Error) -> String {
    let s = format!("{e:?}");
    s.split(['(', ' ', '{']).next().unwrap_or("Unknown").to_string()
}

/// Everything a client thread needs during the window.
pub struct Window<'a> {
    /// The cluster under test.
    pub cluster: &'a CouchbaseCluster,
    /// Key strings by key index.
    pub keys: &'a [String],
    /// Keys loaded during set-up (scans check against these).
    pub records: u64,
    /// Active engine per vBucket (traced persist ops wait on it).
    pub active: Vec<Arc<DataEngine>>,
    /// Window start.
    pub start: Instant,
    /// Window end: no op starts at or after it.
    pub end: Instant,
    /// Whether odd slices run with the benchmark's spans.
    pub trace: bool,
}

impl Window<'_> {
    /// Each vBucket's active engine, looked up once before the window.
    pub fn active_engines(cluster: &CouchbaseCluster) -> Result<Vec<Arc<DataEngine>>, String> {
        let map = cluster.inner().map(BUCKET).map_err(|e| e.to_string())?;
        (0..cbs_common::NUM_VBUCKETS)
            .map(|v| {
                let node =
                    cluster.inner().node(map.active_node(VbId(v))).map_err(|e| e.to_string())?;
                node.engine(BUCKET).map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Run one closed-loop client thread over `stream` until the window
    /// ends.
    pub fn drive(&self, stream: &Stream) -> Result<ThreadOut, String> {
        let bucket = self.cluster.bucket(BUCKET).map_err(|e| e.to_string())?;
        let client = Arc::clone(bucket.client());
        let timeout = Duration::from_secs(DURABLE_TIMEOUT_S);
        let mut out = ThreadOut::default();
        for s in &mut out.samples {
            s.reserve(1 << 18);
        }
        while Instant::now() < self.start {
            std::hint::spin_loop();
        }
        let mut i = 0usize;
        let mut t0 = Instant::now();
        while t0 < self.end {
            let op = stream.ops[i % stream.ops.len()];
            i += 1;
            let key = &self.keys[op.key as usize];
            let since = (t0 - self.start).as_nanos();
            let slice = (since / SLICE.as_nanos()) as usize % 2;
            let sub = (since / SUB_WINDOW.as_nanos()) as usize;
            let traced = self.trace && slice == 1;
            let mut spans = Spans::default();
            // Results are moved out unexamined; checks run after the clock
            // stops.
            let mut query: Option<QueryResult> = None;
            let mut read: Option<SharedValue> = None;
            let result: Result<Option<MutationResult>, Error> = match op.class {
                Class::Read => bucket.get(key).map(|g| {
                    read = Some(g.value);
                    None
                }),
                Class::Update | Class::Insert => {
                    bucket.upsert(key, stream.docs[op.arg as usize].value.clone()).map(Some)
                }
                Class::Scan => {
                    let opts = &stream.scans[op.arg as usize];
                    self.cluster.query("EXECUTE ycsb_scan", opts).map(|r| {
                        query = Some(r);
                        None
                    })
                }
                Class::Replicate | Class::Persist => {
                    let durability = Durability {
                        replicate_to: u8::from(op.class == Class::Replicate),
                        persist_to_master: op.class == Class::Persist,
                    };
                    let doc = stream.docs[op.arg as usize].value.clone();
                    if traced {
                        // The same work `upsert_durable` does, split so the
                        // wait after the ack is timed on its own.
                        bucket.upsert(key, doc).and_then(|m| {
                            let acked = Instant::now();
                            let waited = if op.class == Class::Persist {
                                self.active[m.vb.index()].wait_persisted(m.vb, m.seqno, timeout)
                            } else {
                                client.observe(key, m, durability, timeout)
                            };
                            let ns = acked.elapsed().as_nanos() as u64;
                            let slot = if op.class == Class::Persist {
                                &mut spans.persist_wait
                            } else {
                                &mut spans.catchup
                            };
                            *slot = (ns, 1);
                            waited.map(|()| Some(m))
                        })
                    } else {
                        bucket.upsert_durable(key, doc, durability, timeout).map(Some)
                    }
                }
            };
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            out.samples[op.class.index()].push(ns);
            out.slice_ops[slice] += 1;
            if out.per_sub.len() <= sub {
                out.per_sub.resize(sub + 1, 0);
            }
            out.per_sub[sub] += 1;
            if traced {
                if let Some(r) = &query {
                    let p = &r.phases;
                    spans.phases = [p.plan, p.index_scan, p.primary_scan, p.fetch, p.run]
                        .map(|d| d.as_nanos() as u64);
                    spans.queries = 1;
                }
                out.spans.add(&spans);
            }
            match result {
                Ok(m) => {
                    if let Some(m) = m {
                        let d = &stream.docs[op.arg as usize];
                        out.acked.push((op.key, m.seqno.0, d.digest, d.user_bytes));
                    }
                    if let Some(doc) = read {
                        if let Err(v) = check::check_carries_key(key, &doc) {
                            out.violation(v);
                        }
                    }
                    if let Some(r) = query {
                        let lim = scan_limit(&stream.scans[op.arg as usize]);
                        let after = self.records.saturating_sub(u64::from(op.key));
                        if let Err(v) = check::check_scan(&r.rows, key, lim, after) {
                            out.violation(v);
                        }
                    }
                }
                Err(e) => {
                    *out.errors.entry(error_kind(&e)).or_default() += 1;
                    if op.class.writes() {
                        out.unacked.push((op.key, stream.docs[op.arg as usize].digest));
                    }
                }
            }
            let next = Instant::now();
            out.slice_ns[slice] += (next - t0).as_nanos() as u64;
            t0 = next;
        }
        out.finished = Some(t0);
        Ok(out)
    }
}

/// The outcome of the post-window checks.
pub struct Verified {
    /// Violations found (the first few, verbatim).
    pub violations: Vec<String>,
    /// Total violations.
    pub violation_count: u64,
    /// Keys read back.
    pub keys_checked: u64,
    /// User bytes of the live documents (key + encoded JSON).
    pub user_bytes: u64,
}

/// After the window: wait for quiescence, read every key back and compare
/// it with the acked write of highest seqno (or, for keys the window did
/// not write, with the load's `(digest, user bytes)`), and compare every
/// replica with its active.
pub fn verify(
    cluster: &CouchbaseCluster,
    keys: &[String],
    load: &[(u64, u64)],
    out: &ThreadOut,
) -> Verified {
    let mut v =
        Verified { violations: Vec::new(), violation_count: 0, keys_checked: 0, user_bytes: 0 };
    let flag = |v: &mut Verified, msg: String| {
        v.violation_count += 1;
        if v.violations.len() < MAX_REPORTED {
            v.violations.push(msg);
        }
    };
    if let Err(e) = quiesce(cluster) {
        flag(&mut v, e);
    }
    // Expected (seqno, digest, user bytes) per key: the load, then every
    // acked write with a higher seqno.
    let mut expected: Vec<Option<(u64, u64, u64)>> = vec![None; keys.len()];
    for (k, &(digest, bytes)) in load.iter().enumerate() {
        expected[k] = Some((0, digest, bytes));
    }
    for &(key, seqno, digest, bytes) in &out.acked {
        let slot = &mut expected[key as usize];
        if slot.is_none_or(|(s, _, _)| seqno > s) {
            *slot = Some((seqno, digest, bytes));
        }
    }
    let mut maybe: HashMap<u32, Vec<u64>> = HashMap::new();
    for &(key, digest) in &out.unacked {
        maybe.entry(key).or_default().push(digest);
    }
    match cluster.bucket(BUCKET) {
        Ok(bucket) => {
            for (k, e) in expected.iter().enumerate() {
                let Some((_, want, bytes)) = *e else { continue };
                let got = bucket.get(&keys[k]).ok().map(|g| digest(&g.value));
                let alts = maybe.get(&(k as u32)).map(Vec::as_slice).unwrap_or(&[]);
                if let Err(msg) = check::check_final_value(&keys[k], got, want, alts) {
                    flag(&mut v, msg);
                }
                v.keys_checked += 1;
                v.user_bytes += bytes;
            }
        }
        Err(e) => flag(&mut v, format!("connect: {e}")),
    }
    let copies = vb_copies(cluster, true);
    if copies.len() != cbs_common::NUM_VBUCKETS as usize {
        flag(&mut v, format!("{} of {} vBuckets have both copies", copies.len(), keys.len()));
    }
    if let Err(msg) = check::check_replicas(&copies) {
        flag(&mut v, msg);
    }
    v
}

/// Run every client thread over its stream for the window. Meanwhile
/// this thread reads the process CPU time at every sub-window boundary
/// (`cpu[k]` is the reading at the start of sub-window `k`).
pub fn run_window(w: &Window<'_>, streams: &[Stream]) -> Result<(ThreadOut, Vec<f64>), String> {
    let mut cpu = Vec::new();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = streams.iter().map(|st| s.spawn(move || w.drive(st))).collect();
        let mut at = w.start;
        while at <= w.end {
            if let Some(d) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            cpu.push(crate::host::process_cpu_s());
            at += SUB_WINDOW;
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((ThreadOut::merge(outs), cpu))
}

/// Total bytes of every vBucket file on every node.
pub fn file_bytes(cluster: &CouchbaseCluster) -> u64 {
    engines(cluster).iter().flat_map(|e| e.storage_stats()).map(|(_, s)| s.file_bytes).sum()
}
