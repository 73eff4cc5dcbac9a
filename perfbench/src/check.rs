//! Output correctness checks. Each returns a description of the first
//! violation it finds; any violation fails the run.

use cbs_json::Value;

/// A scan result must be sorted, start at or after `$start`, hold at most
/// `$lim` rows, and hold exactly `$lim` rows when set-up loaded at least
/// `$lim` keys at or after `$start` (`loaded_from_start`).
pub fn check_scan(
    rows: &[Value],
    start: &str,
    lim: u64,
    loaded_from_start: u64,
) -> Result<(), String> {
    if rows.len() as u64 > lim {
        return Err(format!("scan from {start}: {} rows exceed $lim={lim}", rows.len()));
    }
    if loaded_from_start >= lim && (rows.len() as u64) < lim {
        return Err(format!(
            "scan from {start}: {} rows, but {loaded_from_start} loaded keys follow $start \
             and $lim={lim}",
            rows.len()
        ));
    }
    let mut prev: Option<&str> = None;
    for row in rows {
        let Some(id) = row.get_field("id").and_then(Value::as_str) else {
            return Err(format!("scan from {start}: row without a string id: {row}"));
        };
        if id < start {
            return Err(format!("scan from {start}: row {id} sorts before $start"));
        }
        if let Some(p) = prev {
            if id <= p {
                return Err(format!("scan from {start}: row {id} follows {p} (out of order)"));
            }
        }
        prev = Some(id);
    }
    Ok(())
}

/// A document read back for `key` must carry that key.
pub fn check_carries_key(key: &str, doc: &Value) -> Result<(), String> {
    match doc.get_field("key").and_then(Value::as_str) {
        Some(k) if k == key => Ok(()),
        other => Err(format!("get {key}: document carries key {other:?}")),
    }
}

/// The value read for `key` after the window must be the acked write with
/// the highest seqno (`expected`), or one of the writes whose ack failed
/// and may still have been applied (`maybe`).
pub fn check_final_value(
    key: &str,
    got: Option<u64>,
    expected: u64,
    maybe: &[u64],
) -> Result<(), String> {
    match got {
        Some(d) if d == expected || maybe.contains(&d) => Ok(()),
        Some(d) => Err(format!(
            "get {key}: stale or wrong value (digest {d:016x}, expected {expected:016x})"
        )),
        None => Err(format!("get {key}: missing")),
    }
}

/// One vBucket's copies once the cluster is quiescent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VbCopies {
    /// The vBucket.
    pub vb: u16,
    /// Active `(high_seqno, persisted_seqno, live_docs)`.
    pub active: (u64, u64, u64),
    /// Replica `(high_seqno, persisted_seqno, live_docs)`.
    pub replica: (u64, u64, u64),
}

/// Every replica must match its active, and every copy must have
/// persisted everything it holds.
pub fn check_replicas(vbs: &[VbCopies]) -> Result<(), String> {
    for c in vbs {
        let (ah, ap, al) = c.active;
        let (rh, rp, rl) = c.replica;
        if rh != ah || rl != al {
            return Err(format!(
                "vb {}: replica at seqno {rh} with {rl} docs, active at {ah} with {al}",
                c.vb
            ));
        }
        if ap != ah || rp != rh {
            return Err(format!(
                "vb {}: persisted seqno behind (active {ap}/{ah}, replica {rp}/{rh})",
                c.vb
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_ycsb::generators::key_for;

    fn rows(ids: &[u64]) -> Vec<Value> {
        ids.iter().map(|i| Value::object([("id", Value::from(key_for(*i)))])).collect()
    }

    #[test]
    fn scan_check_accepts_a_correct_result() {
        assert_eq!(check_scan(&rows(&[10, 11, 12]), &key_for(10), 3, 90), Ok(()));
        // Near the end of the key space fewer rows are fine.
        assert_eq!(check_scan(&rows(&[98, 99]), &key_for(98), 5, 2), Ok(()));
    }

    #[test]
    fn scan_check_rejects_planted_errors() {
        let start = key_for(10);
        assert!(check_scan(&rows(&[10, 12, 11]), &start, 3, 90).is_err(), "out of order");
        assert!(check_scan(&rows(&[10, 10, 11]), &start, 3, 90).is_err(), "duplicate");
        assert!(check_scan(&rows(&[9, 10, 11]), &start, 3, 90).is_err(), "before $start");
        assert!(check_scan(&rows(&[10, 11, 12, 13]), &start, 3, 90).is_err(), "over $lim");
        assert!(check_scan(&rows(&[10, 11]), &start, 3, 90).is_err(), "short");
        let bad = vec![Value::object([("id", Value::int(3))])];
        assert!(check_scan(&bad, &start, 1, 0).is_err(), "id not a string");
    }

    #[test]
    fn value_checks_reject_planted_errors() {
        let doc = Value::object([("key", Value::from("user1"))]);
        assert_eq!(check_carries_key("user1", &doc), Ok(()));
        assert!(check_carries_key("user2", &doc).is_err(), "another key's document");
        assert_eq!(check_final_value("k", Some(5), 5, &[]), Ok(()));
        assert_eq!(check_final_value("k", Some(6), 5, &[6]), Ok(()), "an unacked write");
        assert!(check_final_value("k", Some(4), 5, &[6]).is_err(), "stale value");
        assert!(check_final_value("k", None, 5, &[]).is_err(), "lost document");
    }

    #[test]
    fn replica_check_rejects_planted_errors() {
        let ok = VbCopies { vb: 3, active: (9, 9, 4), replica: (9, 9, 4) };
        assert_eq!(check_replicas(&[ok]), Ok(()));
        let behind = VbCopies { replica: (8, 8, 4), ..ok };
        assert!(check_replicas(&[ok, behind]).is_err(), "replica vBucket behind");
        let docs = VbCopies { replica: (9, 9, 3), ..ok };
        assert!(check_replicas(&[docs]).is_err(), "replica missing a document");
        let unpersisted = VbCopies { active: (9, 8, 4), ..ok };
        assert!(check_replicas(&[unpersisted]).is_err(), "active not persisted");
    }
}
