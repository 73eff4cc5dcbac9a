//! Integration tests for the cache/storage interplay under memory
//! pressure: value-only vs full eviction (§4.3.3), background fetches,
//! and JSON parser robustness on hostile inputs.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use cbs_cache::EvictionPolicy;
use cbs_common::Cas;
use cbs_json::Value;
use cbs_kv::{DataEngine, EngineConfig, FlusherPool, MutateMode};

fn engine_with(policy: EvictionPolicy, quota: usize) -> Arc<DataEngine> {
    let mut cfg = EngineConfig::for_test(16);
    cfg.eviction = policy;
    cfg.cache_quota = quota;
    let e = DataEngine::new(cfg).unwrap();
    e.activate_all();
    e
}

fn big_doc(i: i64) -> Value {
    Value::object([("i", Value::int(i)), ("pad", Value::from("x".repeat(2000)))])
}

#[test]
fn value_eviction_background_fetches_from_disk() {
    // Quota small enough that values must be evicted once clean.
    let engine = engine_with(EvictionPolicy::ValueOnly, 300_000);
    let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(2)).unwrap();
    let n = 300i64;
    let mut written = 0;
    for i in 0..n {
        // Writes may hit TempOom while the flusher catches up; retry.
        let mut attempts = 0;
        loop {
            match engine.set(&format!("k{i}"), big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0) {
                Ok(_) => {
                    written += 1;
                    break;
                }
                Err(cbs_common::Error::TempOom) if attempts < 200 => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    assert_eq!(written, n);
    // Wait for everything to persist, then force eviction pressure off.
    for vb in 0..16u16 {
        let vb = cbs_common::VbId(vb);
        let high = engine.high_seqno(vb);
        if high.0 > 0 {
            engine.wait_persisted(vb, high, Duration::from_secs(10)).unwrap();
        }
    }
    // Every document must still be readable — evicted values come back via
    // background fetch (§4.3.3), proven by the bg_fetch counter.
    for i in 0..n {
        let got = engine.get(&format!("k{i}")).unwrap();
        assert_eq!(got.value.get_field("i"), Some(&Value::int(i)));
    }
    let stats = engine.stats();
    assert!(stats.bg_fetches.get() > 0, "under a tight quota some reads must have gone to disk");
    flusher.shutdown();
}

#[test]
fn full_eviction_still_serves_all_documents() {
    let engine = engine_with(EvictionPolicy::Full, 300_000);
    let flusher = FlusherPool::spawn(Arc::clone(&engine), Duration::from_millis(2)).unwrap();
    let n = 200i64;
    for i in 0..n {
        loop {
            match engine.set(&format!("k{i}"), big_doc(i), MutateMode::Upsert, Cas::WILDCARD, 0) {
                Ok(_) => break,
                Err(cbs_common::Error::TempOom) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    for vb in 0..16u16 {
        let vb = cbs_common::VbId(vb);
        let high = engine.high_seqno(vb);
        if high.0 > 0 {
            engine.wait_persisted(vb, high, Duration::from_secs(10)).unwrap();
        }
    }
    engine.cache_stats(); // warm the accounting paths
    for i in 0..n {
        let got = engine.get(&format!("k{i}")).unwrap();
        assert_eq!(got.value.get_field("i"), Some(&Value::int(i)), "k{i}");
    }
    flusher.shutdown();
}

#[test]
fn json_parser_never_panics_on_garbage() {
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    runner
        .run(&any::<Vec<u8>>(), |bytes| {
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = cbs_json::parse(s); // must not panic
            }
            Ok(())
        })
        .unwrap();
    // And some targeted nasties.
    for s in [
        "{\"a\":",
        "[[[[[[",
        "\"\\ud800\\ud800\"",
        "1e99999",
        "-",
        "{\"\":{\"\":{\"\":null}}}",
        "[1,2,3,]",
        "\u{0000}",
    ] {
        let _ = cbs_json::parse(s);
    }
}

#[test]
fn expiry_pager_reaps_without_access() {
    use cbs_dcp::DcpKind;
    let engine = engine_with(EvictionPolicy::ValueOnly, 64 << 20);
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_secs()
        as u32;
    engine
        .set("short-lived", Value::int(1), MutateMode::Upsert, Cas::WILDCARD, now.saturating_sub(1))
        .unwrap();
    engine.set("immortal", Value::int(2), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
    // Watch DCP: the pager must publish an Expiration without any read.
    let vb = engine.vb_for_key("short-lived");
    let mut stream = engine.open_dcp_stream(vb, engine.high_seqno(vb)).unwrap();
    let reaped = engine.run_expiry_pager();
    assert_eq!(reaped, 1, "exactly the expired doc");
    let items = stream.drain_available();
    assert!(items.iter().any(|i| i.kind == DcpKind::Expiration && i.key == "short-lived"));
    assert!(engine.get("immortal").is_ok());
    assert!(engine.get("short-lived").is_err());
    // Second sweep is a no-op.
    assert_eq!(engine.run_expiry_pager(), 0);
}

/// A write the cache refuses with `TempOom` must take no seqno. Each
/// refusable active-side path (`set`, `delete`, XDCR `set_with_meta`) is
/// driven into `TempOom` against a full-eviction cache whose items are all
/// dirty (nothing flushed, so nothing can be evicted). After each refusal
/// `high_seqno` is unchanged and the next accepted write gets `high + 1`;
/// a DCP stream opened at 0 sees exactly `1..=n`.
#[test]
fn temp_oom_refusal_takes_no_seqno() {
    use cbs_common::{DocMeta, Error, RevNo, SeqNo, VbId};
    let mut cfg = EngineConfig::for_test(1);
    cfg.eviction = EvictionPolicy::Full;
    cfg.cache_quota = 1 << 10;
    let engine = DataEngine::new(cfg).unwrap();
    engine.activate_all();
    let vb = VbId(0);
    let mut stream = engine.open_dcp_stream(vb, SeqNo::ZERO).unwrap();
    // Write short documents until the cache refuses one.
    let mut next = 0i64;
    let mut fill = |engine: &DataEngine| loop {
        next += 1;
        match engine.set(
            &format!("k{next}"),
            Value::int(next),
            MutateMode::Upsert,
            Cas::WILDCARD,
            0,
        ) {
            Ok(_) => {}
            Err(Error::TempOom) => return engine.high_seqno(vb),
            Err(e) => panic!("unexpected: {e}"),
        }
    };
    // A long key: its tombstone needs more room than a refused short set.
    let long_key = "l".repeat(200);
    type Write<'a> = &'a dyn Fn(&DataEngine) -> cbs_common::Result<()>;
    let refusals: [(&str, Write); 3] = [
        ("set", &|e| e.set("big", big_doc(0), MutateMode::Upsert, Cas::WILDCARD, 0).map(drop)),
        ("delete", &|e| e.delete(&long_key, Cas::WILDCARD).map(drop)),
        ("set_with_meta", &|e| {
            let incoming = DocMeta { rev: RevNo(1), cas: Cas(1), ..DocMeta::default() };
            e.set_with_meta("xdcr", incoming, Some(big_doc(1).into()), false).map(drop)
        }),
    ];
    for (i, (path, refused)) in refusals.iter().enumerate() {
        // Dirty, so pinned in the cache until the next flush.
        engine.set(&long_key, Value::int(0), MutateMode::Upsert, Cas::WILDCARD, 0).unwrap();
        let high = fill(&engine);
        assert!(matches!(refused(&engine), Err(Error::TempOom)), "{path} must be refused");
        assert_eq!(engine.high_seqno(vb), high, "a refused {path} took a seqno");
        // Persisting makes the items clean, so the next write can evict.
        engine.flush_once().unwrap();
        let accepted = engine
            .set(&format!("after{i}"), Value::int(0), MutateMode::Upsert, Cas::WILDCARD, 0)
            .unwrap();
        assert_eq!(accepted.seqno, high.next(), "first write after a refused {path}");
    }
    let seqnos: Vec<u64> = stream.drain_available().iter().map(|i| i.meta.seqno.0).collect();
    assert_eq!(seqnos, (1..=engine.high_seqno(vb).0).collect::<Vec<_>>());
}
