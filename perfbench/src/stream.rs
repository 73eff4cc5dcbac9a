//! Seeded op streams, generated in full before the measurement window.
//!
//! Every client thread gets a private, deterministic stream of ops drawn
//! with the `cbs_ycsb` generators from `(seed, thread)`. Documents written
//! by the stream are built up front too, so the window itself only issues
//! calls. A stream is a cycle: a thread that reaches its end starts over,
//! re-issuing the same writes with the same documents (an insert becomes an
//! idempotent upsert of the key it created).

use cbs_json::{SharedValue, Value};
use cbs_n1ql::QueryOptions;
use cbs_ycsb::generators::key_for;
use cbs_ycsb::{OpKind, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Kind, Spec};

/// Documents one thread may pre-build (bounds the stream's memory).
const MAX_DOCS_PER_THREAD: usize = 24_000;
/// Prepared scan argument sets one thread may pre-build.
const MAX_SCANS_PER_THREAD: usize = 60_000;
/// Ops in one thread's cycle at most.
const MAX_OPS_PER_THREAD: usize = 1 << 20;

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Bucket::get`.
    Read,
    /// `Bucket::upsert` of an existing key, memory ack.
    Update,
    /// `Bucket::upsert` of a new key.
    Insert,
    /// `EXECUTE ycsb_scan`.
    Scan,
    /// `upsert_durable` with `replicate_to = 1`.
    Replicate,
    /// `upsert_durable` with `persist_to_master`.
    Persist,
}

impl Class {
    /// Every class, in a fixed order (indexes per-class arrays).
    pub const ALL: [Class; 6] =
        [Class::Read, Class::Update, Class::Insert, Class::Scan, Class::Replicate, Class::Persist];

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        Class::ALL.iter().position(|c| *c == self).unwrap_or(0)
    }

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Update => "update",
            Class::Insert => "insert",
            Class::Scan => "scan",
            Class::Replicate => "replicate",
            Class::Persist => "persist",
        }
    }

    /// True for ops that write a document.
    pub fn writes(self) -> bool {
        !matches!(self, Class::Read | Class::Scan)
    }
}

/// One op: its class, target key index, and an argument (index into the
/// stream's documents for writes, into its scan options for scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What the op does.
    pub class: Class,
    /// Target key (`key_for(key)`); the scan start key for scans.
    pub key: u32,
    /// Document or scan-options index.
    pub arg: u32,
}

/// A pre-built document plus its content digest.
pub struct Doc {
    /// The document, shared with the cluster once written.
    pub value: SharedValue,
    /// [`digest`] of the document.
    pub digest: u64,
    /// Key plus encoded-JSON length: the user bytes it stores.
    pub user_bytes: u64,
}

/// One thread's op cycle.
pub struct Stream {
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// Documents referenced by write ops.
    pub docs: Vec<Doc>,
    /// Named arguments (`$start`, `$lim`) referenced by scan ops.
    pub scans: Vec<QueryOptions>,
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest of a document's fields, names and values in order. Equal
/// digests mean the same key, write id and payload.
pub fn digest(value: &Value) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0100_0000_01B3);
    };
    match value.as_object() {
        Some(fields) => {
            for (name, v) in fields {
                eat(name.as_bytes());
                match v {
                    Value::String(s) => eat(s.as_bytes()),
                    other => eat(other.to_string().as_bytes()),
                }
            }
        }
        None => eat(value.to_string().as_bytes()),
    }
    h
}

/// Build the document stored under key index `key` by write `wid`: the
/// workload's record (`field_count` fields of `field_length` bytes) plus
/// the key it belongs to and the id of the write that produced it.
pub fn make_doc(workload: &Workload, rng: &mut StdRng, key: u64, wid: u64) -> Doc {
    let key_str = key_for(key);
    let mut value = workload.build_record(rng);
    value.insert_field("key", Value::from(key_str.clone()));
    value.insert_field("wid", Value::int(wid as i64));
    let user_bytes = (key_str.len() + value.to_string().len()) as u64;
    Doc { digest: digest(&value), user_bytes, value: SharedValue::new(value) }
}

/// The documents set-up loads, one per key, in key order; a load
/// document's write id is its key. Two threads build one half each, from
/// independent sub-seeds.
pub fn load_docs(spec: &Spec, seed: u64) -> Vec<Doc> {
    let records = spec.records();
    let half = records / 2;
    let build = |part: u64, keys: std::ops::Range<u64>| {
        let workload = Workload::new(&spec.ycsb);
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x10AD + part));
        keys.map(|k| make_doc(&workload, &mut rng, k, k)).collect::<Vec<_>>()
    };
    std::thread::scope(|s| {
        let upper = s.spawn(|| build(1, half..records));
        let mut docs = build(0, 0..half);
        docs.extend(upper.join().expect("load-doc builder panicked"));
        docs
    })
}

/// Every client thread's op cycle, built in parallel.
pub fn streams(spec: &Spec, seed: u64, threads: usize) -> Vec<Stream> {
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..threads).map(|t| s.spawn(move || thread_stream(spec, seed, t, threads))).collect();
        handles.into_iter().map(|h| h.join().expect("stream builder panicked")).collect()
    })
}

/// Thread `thread`'s op cycle (of `threads`) for `spec` and `seed`.
pub fn thread_stream(spec: &Spec, seed: u64, thread: usize, threads: usize) -> Stream {
    let mut workload = Workload::new(&spec.ycsb);
    let mut rng = StdRng::seed_from_u64(mix(seed, 1 + thread as u64));
    let records = spec.records();
    let mut ops = Vec::new();
    let mut docs = Vec::new();
    let mut scans = Vec::new();
    let mut inserts = 0u64;
    while ops.len() < MAX_OPS_PER_THREAD
        && docs.len() < MAX_DOCS_PER_THREAD
        && scans.len() < MAX_SCANS_PER_THREAD
    {
        let class = match workload.next_op(&mut rng) {
            OpKind::Read => Class::Read,
            OpKind::Scan => Class::Scan,
            OpKind::Insert => Class::Insert,
            OpKind::Update | OpKind::ReadModifyWrite => match spec.kind {
                Kind::DurableWrite if rng.gen::<f64>() < 0.5 => Class::Replicate,
                Kind::DurableWrite => Class::Persist,
                _ => Class::Update,
            },
        };
        let key = match class {
            // Inserts interleave across threads so keys never collide.
            Class::Insert => {
                let k = records + inserts * threads as u64 + thread as u64;
                inserts += 1;
                k
            }
            _ => workload.next_key_index(&mut rng, records),
        };
        let arg = match class {
            Class::Read => 0,
            Class::Scan => {
                let lim = workload.next_scan_length(&mut rng) as i64;
                scans.push(QueryOptions::with_named_args([
                    ("start", Value::from(key_for(key))),
                    ("lim", Value::int(lim)),
                ]));
                scans.len() - 1
            }
            _ => {
                let wid = ((thread as u64 + 1) << 40) | ops.len() as u64;
                docs.push(make_doc(&workload, &mut rng, key, wid));
                docs.len() - 1
            }
        };
        ops.push(Op { class, key: key as u32, arg: arg as u32 });
    }
    Stream { ops, docs, scans }
}

/// The scan limit an op's options carry.
pub fn scan_limit(opts: &QueryOptions) -> u64 {
    opts.named_params.get("lim").and_then(Value::as_i64).unwrap_or(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Spec {
        let mut spec = Spec::by_name(name).unwrap();
        spec.ycsb.record_count = 500;
        spec
    }

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        for name in crate::spec::NAMES {
            let spec = small(name);
            let a = thread_stream(&spec, 42, 1, 2);
            let b = thread_stream(&spec, 42, 1, 2);
            assert_eq!(a.ops, b.ops, "{name}");
            let da: Vec<u64> = a.docs.iter().map(|d| d.digest).collect();
            let db: Vec<u64> = b.docs.iter().map(|d| d.digest).collect();
            assert_eq!(da, db, "{name}");
            let c = thread_stream(&spec, 43, 1, 2);
            assert_ne!(a.ops, c.ops, "{name}: another seed, another stream");
            let other_thread = thread_stream(&spec, 42, 0, 2);
            assert_ne!(a.ops, other_thread.ops, "{name}: threads draw independently");
        }
        let spec = small("ycsb_a");
        let la: Vec<u64> = load_docs(&spec, 7).iter().map(|d| d.digest).collect();
        let lb: Vec<u64> = load_docs(&spec, 7).iter().map(|d| d.digest).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn streams_follow_the_workload_mix() {
        let spec = small("durable_write");
        let s = thread_stream(&spec, 1, 0, 2);
        let rep = s.ops.iter().filter(|o| o.class == Class::Replicate).count();
        let per = s.ops.iter().filter(|o| o.class == Class::Persist).count();
        assert_eq!(rep + per, s.ops.len(), "durable_write only writes");
        let share = rep as f64 / s.ops.len() as f64;
        assert!((share - 0.5).abs() < 0.02, "half replicate, half persist: {share}");

        let spec = small("ycsb_e");
        let s = thread_stream(&spec, 1, 1, 2);
        let inserts: Vec<u32> =
            s.ops.iter().filter(|o| o.class == Class::Insert).map(|o| o.key).collect();
        assert!(inserts.iter().all(|k| *k >= 500 && k % 2 == 1), "thread 1 owns odd new keys");
        for op in s.ops.iter().filter(|o| o.class == Class::Scan) {
            let lim = scan_limit(&s.scans[op.arg as usize]);
            assert!((1..=100).contains(&lim));
        }
    }

    #[test]
    fn docs_carry_their_key_and_record_shape() {
        let spec = small("ycsb_a");
        let s = thread_stream(&spec, 3, 0, 2);
        for op in s.ops.iter().filter(|o| o.class.writes()).take(50) {
            let doc = &s.docs[op.arg as usize];
            let key = key_for(u64::from(op.key));
            assert_eq!(doc.value.get_field("key").and_then(Value::as_str), Some(key.as_str()));
            assert_eq!(doc.value.as_object().unwrap().len(), 12, "10 fields + key + wid");
            assert_eq!(doc.digest, digest(&doc.value));
        }
    }
}
