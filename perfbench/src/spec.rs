//! The four named workloads and their fixed parameters.

use cbs_ycsb::WorkloadSpec;

/// Closed-loop client threads in the benchmark process.
pub const CLIENT_THREADS: usize = 2;
/// Cluster nodes, every one running data, index and query (Fig. 14).
pub const NODES: usize = 4;
/// Flusher shards per bucket engine (the default flusher).
pub const FLUSHER_SHARDS: usize = 4;
/// Replica copies per vBucket.
pub const REPLICAS: u8 = 1;
/// Timeout of one durable write; a timeout counts as a failed op.
pub const DURABLE_TIMEOUT_S: u64 = 10;
/// The bucket every workload runs against.
pub const BUCKET: &str = "ycsb";

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 15: 50% get / 50% upsert, dataset resident in the cache.
    YcsbA,
    /// Fig. 16: 95% prepared N1QL range scans / 5% inserts.
    YcsbE,
    /// §2.3.2: durable upserts, half replicate_to=1, half persist_to_master.
    DurableWrite,
    /// 95% get / 5% upsert with a dataset larger than the cache.
    YcsbBDgm,
}

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload kind.
    pub kind: Kind,
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Op mix, key distribution and record shape (YCSB core model).
    pub ycsb: WorkloadSpec,
    /// Per-bucket cache quota per node, bytes.
    pub cache_quota: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["ycsb_a", "ycsb_e", "durable_write", "ycsb_b_dgm"];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        let (kind, ycsb, cache_quota) = match name {
            "ycsb_a" => (Kind::YcsbA, WorkloadSpec::a(100_000), 2 << 30),
            "ycsb_e" => (Kind::YcsbE, WorkloadSpec::e(50_000), 2 << 30),
            "durable_write" => (
                Kind::DurableWrite,
                WorkloadSpec {
                    name: "durable".to_string(),
                    read_proportion: 0.0,
                    update_proportion: 1.0,
                    ..WorkloadSpec::a(50_000)
                },
                2 << 30,
            ),
            "ycsb_b_dgm" => (Kind::YcsbBDgm, WorkloadSpec::b(100_000), 12 << 20),
            _ => return None,
        };
        let name = NAMES.iter().copied().find(|n| *n == name)?;
        Some(Spec { kind, name, ycsb, cache_quota })
    }

    /// Records loaded during set-up.
    pub fn records(&self) -> u64 {
        self.ycsb.record_count
    }

    /// Whether set-up builds the primary index and prepares `ycsb_scan`.
    pub fn has_index(&self) -> bool {
        self.kind == Kind::YcsbE
    }

    /// The workload parameters as a JSON object (for provenance).
    pub fn describe(&self) -> String {
        let w = &self.ycsb;
        format!(
            "{{\"records\":{},\"read\":{},\"update\":{},\"insert\":{},\"scan\":{},\
             \"distribution\":\"{:?}\",\"field_count\":{},\"field_length\":{},\
             \"max_scan_length\":{},\"cache_quota_bytes\":{},\"nodes\":{},\"replicas\":{},\
             \"vbuckets\":{},\"client_threads\":{},\"durable\":{}}}",
            w.record_count,
            w.read_proportion,
            w.update_proportion,
            w.insert_proportion,
            w.scan_proportion,
            w.distribution,
            w.field_count,
            w.field_length,
            w.max_scan_length,
            self.cache_quota,
            NODES,
            REPLICAS,
            cbs_common::NUM_VBUCKETS,
            CLIENT_THREADS,
            self.kind == Kind::DurableWrite,
        )
    }
}
