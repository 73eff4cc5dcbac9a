//! Per-vBucket append-only store.
//!
//! One log file per vBucket. All mutations append; an in-memory by-id map
//! and by-seqno B-tree index the latest state. Fragmentation (bytes owned by
//! superseded records) is tracked so the engine can trigger online
//! compaction at a threshold, exactly as §4.3.3 describes.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use cbs_common::sync::{rank, OrderedMutex};
use cbs_common::{Error, Result, SeqNo, VbId};

use crate::record::{decode_record, encode_record, DecodeOutcome, StoredDoc};

/// Point-in-time statistics for one vBucket store.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Number of live (non-tombstone) documents.
    pub live_docs: u64,
    /// Number of tombstones currently indexed.
    pub tombstones: u64,
    /// Highest persisted seqno.
    pub high_seqno: SeqNo,
    /// Total file bytes.
    pub file_bytes: u64,
    /// Bytes owned by superseded (stale) records.
    pub stale_bytes: u64,
    /// Number of compactions run since open.
    pub compactions: u64,
}

impl StoreStats {
    /// Stale fraction of the file; the compaction trigger input.
    pub fn fragmentation(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            self.stale_bytes as f64 / self.file_bytes as f64
        }
    }
}

struct IndexEntry {
    offset: u64,
    len: u32,
    seqno: SeqNo,
    deleted: bool,
}

struct Inner {
    file: File,
    path: PathBuf,
    /// key → latest record location.
    by_id: HashMap<String, IndexEntry>,
    /// seqno → record offset (latest version of each key only; superseded
    /// seqnos are pruned, mirroring couchstore's by-seqno B-tree after
    /// compaction of in-memory state).
    by_seqno: BTreeMap<u64, u64>,
    high_seqno: SeqNo,
    file_bytes: u64,
    stale_bytes: u64,
    compactions: u64,
}

/// Append-only store for one vBucket.
pub struct VBucketStore {
    vb: VbId,
    inner: OrderedMutex<Inner>,
}

impl VBucketStore {
    /// Open (or create) the store file for `vb` inside `dir`, replaying the
    /// log to rebuild indexes. A torn tail (crash mid-append) is truncated;
    /// mid-file corruption is an error.
    pub fn open(dir: &Path, vb: VbId) -> Result<VBucketStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("vb_{}.couch", vb.0));
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut by_id: HashMap<String, IndexEntry> = HashMap::new();
        let mut by_seqno: BTreeMap<u64, u64> = BTreeMap::new();
        let mut high_seqno = SeqNo::ZERO;
        let mut stale_bytes = 0u64;
        let mut offset = 0usize;
        let valid_len;
        loop {
            match decode_record(&bytes[offset..]) {
                DecodeOutcome::Record { doc, consumed } => {
                    if let Some(prev) = by_id.get(&doc.key) {
                        stale_bytes += prev.len as u64;
                        by_seqno.remove(&prev.seqno.0);
                    }
                    high_seqno = high_seqno.max(doc.meta.seqno);
                    by_seqno.insert(doc.meta.seqno.0, offset as u64);
                    by_id.insert(
                        doc.key.clone(),
                        IndexEntry {
                            offset: offset as u64,
                            len: consumed as u32,
                            seqno: doc.meta.seqno,
                            deleted: doc.deleted,
                        },
                    );
                    offset += consumed;
                }
                DecodeOutcome::Incomplete => {
                    valid_len = offset;
                    break;
                }
                DecodeOutcome::Corrupt(msg) => {
                    // A corrupt record *at the tail* is a torn write from a
                    // crash and is safely truncated. Corruption followed by
                    // more data would mean silent loss, but we cannot
                    // distinguish; like couchstore we recover the prefix.
                    if offset == 0 && !bytes.is_empty() {
                        return Err(Error::Storage(format!(
                            "vb {} log corrupt at start: {msg}",
                            vb.0
                        )));
                    }
                    valid_len = offset;
                    break;
                }
            }
        }
        if valid_len < bytes.len() {
            file.set_len(valid_len as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(VBucketStore {
            vb,
            inner: OrderedMutex::new(
                rank::VB_STORE,
                Inner {
                    file,
                    path,
                    by_id,
                    by_seqno,
                    high_seqno,
                    file_bytes: valid_len as u64,
                    stale_bytes,
                    compactions: 0,
                },
            ),
        })
    }

    /// The vBucket this store belongs to.
    pub fn vb(&self) -> VbId {
        self.vb
    }

    /// Append one mutation (set or tombstone). The caller (the data
    /// service's flusher) assigns seqnos; they must be monotone per vBucket.
    pub fn persist(&self, doc: &StoredDoc) -> Result<()> {
        let mut inner = self.inner.lock();
        let mut buf = BytesMut::new();
        let len = encode_record(doc, &mut buf);
        inner.file.write_all(&buf)?;
        let offset = inner.file_bytes;
        inner.file_bytes += len as u64;
        if let Some(prev) = inner.by_id.get(&doc.key) {
            let (plen, pseq) = (prev.len as u64, prev.seqno.0);
            inner.stale_bytes += plen;
            inner.by_seqno.remove(&pseq);
        }
        inner.high_seqno = inner.high_seqno.max(doc.meta.seqno);
        inner.by_seqno.insert(doc.meta.seqno.0, offset);
        inner.by_id.insert(
            doc.key.clone(),
            IndexEntry { offset, len: len as u32, seqno: doc.meta.seqno, deleted: doc.deleted },
        );
        Ok(())
    }

    /// Append a batch of mutations with a single lock acquisition and a
    /// single write syscall — the flusher's de-duplicated drain path.
    pub fn persist_batch(&self, docs: &[StoredDoc]) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        let _s = cbs_obs::span("storage.store.persist_batch");
        let mut inner = self.inner.lock();
        let mut buf = BytesMut::new();
        let mut offsets = Vec::with_capacity(docs.len());
        for doc in docs {
            let off = buf.len();
            let len = encode_record(doc, &mut buf);
            offsets.push((off as u64, len as u32));
        }
        inner.file.write_all(&buf)?;
        let base = inner.file_bytes;
        inner.file_bytes += buf.len() as u64;
        for (doc, (rel, len)) in docs.iter().zip(offsets) {
            if let Some(prev) = inner.by_id.get(&doc.key) {
                let (plen, pseq) = (prev.len as u64, prev.seqno.0);
                inner.stale_bytes += plen;
                inner.by_seqno.remove(&pseq);
            }
            inner.high_seqno = inner.high_seqno.max(doc.meta.seqno);
            inner.by_seqno.insert(doc.meta.seqno.0, base + rel);
            inner.by_id.insert(
                doc.key.clone(),
                IndexEntry { offset: base + rel, len, seqno: doc.meta.seqno, deleted: doc.deleted },
            );
        }
        Ok(())
    }

    /// Flush OS buffers to stable storage (the "persisted" durability point).
    pub fn sync(&self) -> Result<()> {
        let _s = cbs_obs::span("storage.store.fsync");
        self.inner.lock().file.sync_data()?;
        Ok(())
    }

    /// Fetch the latest persisted version of a key (tombstones included:
    /// callers inspect `deleted`). `None` if never written.
    pub fn get(&self, key: &str) -> Result<Option<StoredDoc>> {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.by_id.get(key) else {
            return Ok(None);
        };
        let (offset, len) = (entry.offset, entry.len as usize);
        let mut buf = vec![0u8; len];
        inner.file.seek(SeekFrom::Start(offset))?;
        inner.file.read_exact(&mut buf)?;
        inner.file.seek(SeekFrom::End(0))?;
        Ok(Some(crate::record::decode_record_strict(&buf)?))
    }

    /// Read all persisted mutations with seqno strictly greater than
    /// `since`, in seqno order — the DCP backfill scan.
    pub fn changes_since(&self, since: SeqNo) -> Result<Vec<StoredDoc>> {
        let mut inner = self.inner.lock();
        let offsets: Vec<u64> = inner.by_seqno.range(since.0 + 1..).map(|(_, &off)| off).collect();
        let mut out = Vec::with_capacity(offsets.len());
        for off in offsets {
            inner.file.seek(SeekFrom::Start(off))?;
            // Read header to learn the length, then the payload.
            let mut hdr = [0u8; crate::record::HEADER_LEN];
            inner.file.read_exact(&mut hdr)?;
            let plen = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
            let mut rec = vec![0u8; crate::record::HEADER_LEN + plen];
            rec[..crate::record::HEADER_LEN].copy_from_slice(&hdr);
            inner.file.read_exact(&mut rec[crate::record::HEADER_LEN..])?;
            out.push(crate::record::decode_record_strict(&rec)?);
        }
        inner.file.seek(SeekFrom::End(0))?;
        Ok(out)
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let tombstones = inner.by_id.values().filter(|e| e.deleted).count() as u64;
        StoreStats {
            live_docs: inner.by_id.len() as u64 - tombstones,
            tombstones,
            high_seqno: inner.high_seqno,
            file_bytes: inner.file_bytes,
            stale_bytes: inner.stale_bytes,
            compactions: inner.compactions,
        }
    }

    /// Highest persisted seqno (the durability watermark used by
    /// `persist_to` observe polling).
    pub fn high_seqno(&self) -> SeqNo {
        self.inner.lock().high_seqno
    }

    /// Run compaction if fragmentation exceeds `threshold` (0.0..1.0).
    /// Returns true if a compaction ran.
    pub fn maybe_compact(&self, threshold: f64) -> Result<bool> {
        if self.stats().fragmentation() < threshold {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// Rewrite live records (and tombstones, which must survive for
    /// replication metadata) to a fresh file and atomically swap it in.
    pub fn compact(&self) -> Result<()> {
        let _s = cbs_obs::span("storage.compaction.run");
        let mut inner = self.inner.lock();
        let tmp_path = inner.path.with_extension("compact");
        // lint:allow(guard-io): the inner lock is this file's only writer
        // exclusion; the scratch file must be created while appends are held
        // off so the rewrite sees a frozen index.
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;

        // Gather live records in seqno order.
        let offsets: Vec<u64> = inner.by_seqno.values().copied().collect();
        let mut new_by_id = HashMap::with_capacity(inner.by_id.len());
        let mut new_by_seqno = BTreeMap::new();
        let mut buf = BytesMut::new();
        let mut new_offset = 0u64;
        for off in offsets {
            inner.file.seek(SeekFrom::Start(off))?;
            let mut hdr = [0u8; crate::record::HEADER_LEN];
            inner.file.read_exact(&mut hdr)?;
            let plen = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
            let mut rec = vec![0u8; crate::record::HEADER_LEN + plen];
            rec[..crate::record::HEADER_LEN].copy_from_slice(&hdr);
            inner.file.read_exact(&mut rec[crate::record::HEADER_LEN..])?;
            let doc = crate::record::decode_record_strict(&rec)?;
            buf.extend_from_slice(&rec);
            new_by_seqno.insert(doc.meta.seqno.0, new_offset);
            new_by_id.insert(
                doc.key.clone(),
                IndexEntry {
                    offset: new_offset,
                    len: rec.len() as u32,
                    seqno: doc.meta.seqno,
                    deleted: doc.deleted,
                },
            );
            new_offset += rec.len() as u64;
        }
        tmp.write_all(&buf)?;
        tmp.sync_data()?;
        // Atomic swap, as the paper notes compaction runs "while the system
        // is online".
        // lint:allow(guard-io): the rename + reopen must be atomic w.r.t.
        // appends — releasing the lock here would let a writer append to the
        // pre-swap file and lose the record.
        std::fs::rename(&tmp_path, &inner.path)?;
        // lint:allow(guard-io): same swap window as the rename above.
        let mut file = OpenOptions::new().read(true).append(true).open(&inner.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.by_id = new_by_id;
        inner.by_seqno = new_by_seqno;
        inner.file_bytes = new_offset;
        inner.stale_bytes = 0;
        inner.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DocMeta;
    use crate::scratch_dir;
    use bytes::Bytes;
    use cbs_common::{Cas, RevNo};

    fn doc(key: &str, val: &str, seq: u64) -> StoredDoc {
        StoredDoc {
            key: key.to_string(),
            meta: DocMeta {
                seqno: SeqNo(seq),
                cas: Cas(seq + 1),
                rev: RevNo(seq),
                flags: 0,
                expiry: 0,
            },
            deleted: false,
            value: Bytes::copy_from_slice(val.as_bytes()),
        }
    }

    fn tombstone(key: &str, seq: u64) -> StoredDoc {
        let mut d = doc(key, "", seq);
        d.deleted = true;
        d
    }

    #[test]
    fn set_get_delete() {
        let dir = scratch_dir("vbstore");
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        s.persist(&doc("a", r#"{"v":1}"#, 1)).unwrap();
        s.persist(&doc("b", r#"{"v":2}"#, 2)).unwrap();
        let got = s.get("a").unwrap().unwrap();
        assert_eq!(&got.value[..], br#"{"v":1}"#);
        assert!(s.get("zzz").unwrap().is_none());

        s.persist(&tombstone("a", 3)).unwrap();
        assert!(s.get("a").unwrap().unwrap().deleted);
        let st = s.stats();
        assert_eq!(st.live_docs, 1);
        assert_eq!(st.tombstones, 1);
        assert_eq!(st.high_seqno, SeqNo(3));
    }

    #[test]
    fn reopen_recovers_state() {
        let dir = scratch_dir("vbstore");
        {
            let s = VBucketStore::open(&dir, VbId(5)).unwrap();
            s.persist(&doc("a", r#"{"v":1}"#, 1)).unwrap();
            s.persist(&doc("a", r#"{"v":2}"#, 2)).unwrap();
            s.persist(&doc("b", r#"{"v":3}"#, 3)).unwrap();
            s.sync().unwrap();
        }
        let s = VBucketStore::open(&dir, VbId(5)).unwrap();
        assert_eq!(&s.get("a").unwrap().unwrap().value[..], br#"{"v":2}"#);
        assert_eq!(s.high_seqno(), SeqNo(3));
        let st = s.stats();
        assert_eq!(st.live_docs, 2);
        assert!(st.stale_bytes > 0, "superseded a@1 must count as stale");
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = scratch_dir("vbstore");
        let path;
        {
            let s = VBucketStore::open(&dir, VbId(9)).unwrap();
            s.persist(&doc("a", r#"{"v":1}"#, 1)).unwrap();
            s.persist(&doc("b", r#"{"v":2}"#, 2)).unwrap();
            s.sync().unwrap();
            path = dir.join("vb_9.couch");
        }
        // Simulate a torn append: chop 3 bytes off the tail.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let s = VBucketStore::open(&dir, VbId(9)).unwrap();
        assert!(s.get("a").unwrap().is_some(), "first record survives");
        assert!(s.get("b").unwrap().is_none(), "torn record dropped");
        assert_eq!(s.high_seqno(), SeqNo(1));
        // And the store remains appendable.
        s.persist(&doc("c", r#"{"v":3}"#, 2)).unwrap();
        assert!(s.get("c").unwrap().is_some());
    }

    #[test]
    fn changes_since_returns_latest_versions_in_order() {
        let dir = scratch_dir("vbstore");
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        s.persist(&doc("a", "1", 1)).unwrap();
        s.persist(&doc("b", "2", 2)).unwrap();
        s.persist(&doc("a", "3", 3)).unwrap(); // supersedes seq 1
        s.persist(&tombstone("b", 4)).unwrap(); // supersedes seq 2
        let all = s.changes_since(SeqNo::ZERO).unwrap();
        let seqs: Vec<u64> = all.iter().map(|d| d.meta.seqno.0).collect();
        assert_eq!(seqs, [3, 4], "only latest versions, in seqno order");
        let tail = s.changes_since(SeqNo(3)).unwrap();
        assert_eq!(tail.len(), 1);
        assert!(tail[0].deleted);
    }

    #[test]
    fn compaction_reclaims_space_and_preserves_data() {
        let dir = scratch_dir("vbstore");
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        for i in 0..100u64 {
            s.persist(&doc("hot", &format!(r#"{{"v":{i}}}"#), i + 1)).unwrap();
        }
        s.persist(&doc("cold", r#"{"v":"x"}"#, 101)).unwrap();
        let before = s.stats();
        assert!(before.fragmentation() > 0.9);

        assert!(s.maybe_compact(0.5).unwrap());
        let after = s.stats();
        assert_eq!(after.stale_bytes, 0);
        assert!(after.file_bytes < before.file_bytes / 10);
        assert_eq!(after.compactions, 1);
        assert_eq!(&s.get("hot").unwrap().unwrap().value[..], br#"{"v":99}"#);
        assert_eq!(&s.get("cold").unwrap().unwrap().value[..], br#"{"v":"x"}"#);
        // Below threshold → no-op.
        assert!(!s.maybe_compact(0.5).unwrap());

        // Store still works after compaction (append + reopen).
        s.persist(&doc("new", "1", 102)).unwrap();
        s.sync().unwrap();
        drop(s);
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        assert_eq!(s.high_seqno(), SeqNo(102));
        assert_eq!(s.stats().live_docs, 3);
    }

    #[test]
    fn batch_persist_matches_individual() {
        let dir = scratch_dir("vbstore");
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        let batch: Vec<StoredDoc> =
            (1..=10).map(|i| doc(&format!("k{i}"), &format!("{i}"), i)).collect();
        s.persist_batch(&batch).unwrap();
        assert_eq!(s.stats().live_docs, 10);
        for i in 1..=10u64 {
            let got = s.get(&format!("k{i}")).unwrap().unwrap();
            assert_eq!(got.meta.seqno, SeqNo(i));
        }
        // Batch with an overwrite inside the batch itself.
        let batch2 = vec![doc("k1", "new", 11), tombstone("k1", 12)];
        s.persist_batch(&batch2).unwrap();
        assert!(s.get("k1").unwrap().unwrap().deleted);
    }

    #[test]
    fn empty_batch_is_noop() {
        let dir = scratch_dir("vbstore");
        let s = VBucketStore::open(&dir, VbId(0)).unwrap();
        s.persist_batch(&[]).unwrap();
        assert_eq!(s.stats().file_bytes, 0);
    }
}
