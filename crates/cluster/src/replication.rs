//! The per-bucket DCP pump: intra-cluster replication (§4.1.1) and the
//! data→index feed (Figure 9), driven off the same change streams.
//!
//! "This mutation [...] is also pushed into the in-memory replication
//! queue to be replicated to other nodes within the cluster" (§4.2, Figure
//! 6). The pump owns, per vBucket, a DCP stream from the current active
//! copy; items fan out to every replica engine (memory-to-memory) and to
//! every index-service manager. When the cluster map epoch changes
//! (failover, rebalance) or a node dies or returns, the pump rebuilds its
//! streams, resuming from the destinations' high seqnos / its own index
//! cursor.
//!
//! [`Pump`] is the whole pump as a state machine stepped by
//! [`Pump::cycle`]; its clock is the cycle count. [`ReplicationPump`] is
//! the production thread that cycles it and sleeps
//! [`IDLE_SLEEP`] whenever a cycle moved nothing. A caller that wants
//! replication on a deterministic schedule (chaos measure mode) takes the
//! `Pump` from [`Cluster::create_bucket_stepped`] and cycles it itself.
//!
//! [`Cluster::create_bucket_stepped`]: crate::Cluster::create_bucket_stepped

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cbs_common::{Error, NodeId, SeqNo, VbId};
use cbs_dcp::{DcpItem, DcpStream};
use cbs_fts::FtsService;
use cbs_index::IndexManager;
use cbs_kv::DataEngine;

use crate::fault::{FaultAction, FaultInjector};
use crate::lag::ReplicationLagTable;
use crate::map::ClusterMap;

/// How long the pump thread sleeps after a cycle that moved nothing. It is
/// also the wall-clock length of one cycle that an injected
/// [`FaultAction::Delay`] is converted with.
pub const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// A snapshot of everything the pump needs to (re)build streams.
pub struct PumpTopology {
    /// Current map.
    pub map: ClusterMap,
    /// Data engines by node.
    pub engines: HashMap<NodeId, Arc<DataEngine>>,
    /// Index managers to feed.
    pub index_managers: Vec<Arc<IndexManager>>,
    /// Full-text search services to feed (§6.1.3).
    pub fts_services: Vec<Arc<FtsService>>,
    /// Fault hooks for replica deliveries (chaos testing; `None` in
    /// production).
    pub injector: Option<Arc<dyn FaultInjector>>,
}

/// Callback the pump uses to fetch a fresh topology when the epoch moves.
pub type TopologyFn = Box<dyn Fn() -> PumpTopology + Send>;

/// One replica's tail of one vBucket held back by an injected `Delay`:
/// `items[0]` is the delayed item and lands at cycle `until`; the items
/// behind it wait, in seqno order, and take their own fault decisions once
/// it has landed.
struct Hold {
    vb: VbId,
    dst: NodeId,
    until: u64,
    items: VecDeque<DcpItem>,
}

// Holds are rare, so they live beside the per-vBucket streams rather than
// in them: an idle cycle walks every slot, and its cost tracks the slot
// size.
#[derive(Default)]
struct VbStreams {
    repl: Option<DcpStream>,
    gsi: Option<DcpStream>,
}

/// What one delivery attempt did with an item.
enum Offer {
    Landed,
    /// Held for this many cycles.
    Held(u64),
    Dropped,
}

/// One bucket's DCP pump, stepped by [`Pump::cycle`].
pub struct Pump {
    bucket: String,
    topology: TopologyFn,
    lag: Arc<ReplicationLagTable>,
    topo: PumpTopology,
    built_epoch: u64,
    streams: Vec<VbStreams>,
    holds: Vec<Hold>,
    /// Per-vb GSI delivery cursor (seqnos survive failover, so resuming by
    /// cursor on the new active is correct).
    gsi_cursors: Vec<SeqNo>,
    /// Redelivery counts per (vb, seqno, dst) site, consulted by the fault
    /// injector so it can drop attempt 0 and let the retry through.
    /// Entries are removed once the site is past its fault window.
    attempts: HashMap<(u16, u64, u32), u32>,
}

impl Pump {
    /// A pump for `bucket`. No stream is open until the first cycle. `lag`
    /// is the bucket's replication-lag table; the pump samples it once per
    /// cycle after draining the streams, and its cycle count is the pump's
    /// clock.
    pub(crate) fn new(bucket: &str, topology: TopologyFn, lag: Arc<ReplicationLagTable>) -> Pump {
        let topo = topology();
        let nvb = topo.map.num_vbuckets() as usize;
        Pump {
            bucket: bucket.to_string(),
            topology,
            lag,
            topo,
            built_epoch: u64::MAX,
            streams: (0..nvb).map(|_| VbStreams::default()).collect(),
            holds: Vec::new(),
            gsi_cursors: vec![SeqNo::ZERO; nvb],
            attempts: HashMap::new(),
        }
    }

    /// One pump cycle: poll the topology and rebuild the streams if it
    /// moved, land held tails whose delay expired, drain every stream to
    /// its replicas and index feeds, then sample the lag table. Returns
    /// the number of items drawn from the streams (0 = idle).
    pub fn cycle(&mut self) -> usize {
        self.refresh();
        let now = self.lag.cycle();
        let Pump { bucket, topo, streams, holds, gsi_cursors, attempts, .. } = self;
        let injector = topo.injector.as_deref();
        let mut moved = 0usize;
        let mut dropped = false;
        // Expired holds go first, ahead of the streams: the delayed item
        // lands, then the tail behind it is sent like newly drawn items.
        let mut expired = Vec::new();
        if !holds.is_empty() {
            (expired, *holds) = std::mem::take(holds).into_iter().partition(|h| h.until <= now);
        }
        // (vBucket, destination) pairs cut off by a dropped or refused
        // delivery this cycle. A drop models a connection reset: everything
        // after the dropped item is lost for that destination too, so its
        // applied set stays a contiguous seqno prefix and the rebuild (which
        // resumes from the replicas' minimum high seqno) redelivers the
        // hole. Delivering *past* a drop would advance the replica's high
        // seqno over the gap and the missing item could never be recovered.
        let mut cut: Vec<(VbId, NodeId)> = Vec::new();
        // `delayed`: the item already sat out its injected delay and lands
        // without a new fault decision.
        let mut send = |dst_node: NodeId, item: &DcpItem, delayed: bool| {
            let vb = item.vb;
            let Some(dst) = topo.engines.get(&dst_node).filter(|_| !cut.contains(&(vb, dst_node)))
            else {
                return;
            };
            // A held destination takes the rest of the stream in order
            // behind its delayed item.
            if let Some(hold) = holds.iter_mut().find(|h| h.vb == vb && h.dst == dst_node) {
                hold.items.push_back(item.clone());
                return;
            }
            match offer(attempts, injector.filter(|_| !delayed), item, dst_node, dst) {
                Offer::Landed => {}
                Offer::Held(cycles) => holds.push(Hold {
                    vb,
                    dst: dst_node,
                    until: now + cycles,
                    items: VecDeque::from([item.clone()]),
                }),
                Offer::Dropped => {
                    dropped = true;
                    cut.push((vb, dst_node));
                }
            }
        };
        for hold in expired {
            for (i, item) in hold.items.iter().enumerate() {
                send(hold.dst, item, i == 0);
            }
        }
        for (v, slot) in streams.iter_mut().enumerate() {
            let vb = VbId(v as u16);
            if let Some(stream) = &mut slot.repl {
                for item in stream.drain_available() {
                    for dst_node in topo.map.replica_nodes(vb) {
                        send(*dst_node, &item, false);
                    }
                    moved += 1;
                }
            }
            if let Some(stream) = &mut slot.gsi {
                for item in stream.drain_available() {
                    for mgr in &topo.index_managers {
                        mgr.apply_dcp(bucket, &item);
                    }
                    for fts in &topo.fts_services {
                        fts.apply_dcp(bucket, &item);
                    }
                    gsi_cursors[v] = gsi_cursors[v].max(item.meta.seqno);
                    moved += 1;
                }
            }
        }

        if dropped {
            // Connection-reset semantics for drops: the next cycle tears
            // the streams down and reopens each replication stream from
            // the replicas' minimum high seqno, redelivering what was lost.
            self.built_epoch = u64::MAX;
        }

        // Sample per-(vBucket, replica) seqno lag against the topology this
        // cycle pumped with. The cycle counter is the lag table's logical
        // clock (window rotation included) — no wall-clock reads.
        self.lag.observe(&self.topo);
        moved
    }

    /// Poll the topology (every cycle). Rebuild when the map epoch moved,
    /// when a node died or came back (a dead active must stop streaming),
    /// or when a drop forced a reset.
    fn refresh(&mut self) {
        let fresh = (self.topology)();
        if fresh.map.epoch != self.built_epoch
            || fresh.engines.len() != self.topo.engines.len()
            || fresh.engines.keys().any(|n| !self.topo.engines.contains_key(n))
        {
            self.topo = fresh;
            self.rebuild();
        }
    }

    /// Reopen every stream against the current topology. Held tails are
    /// discarded: they were never applied, so the replication streams
    /// (resuming from the replicas' minimum high seqno) redeliver them.
    fn rebuild(&mut self) {
        let topo = &self.topo;
        for (v, slot) in self.streams.iter_mut().enumerate() {
            let vb = VbId(v as u16);
            let active = topo.engines.get(&topo.map.active_node(vb));
            *slot = VbStreams::default();
            let dsts: Vec<&Arc<DataEngine>> =
                topo.map.replica_nodes(vb).iter().filter_map(|n| topo.engines.get(n)).collect();
            if let Some(src) = active.filter(|_| !dsts.is_empty()) {
                let since = dsts.iter().map(|d| d.high_seqno(vb)).min().unwrap_or(SeqNo::ZERO);
                slot.repl = src.open_dcp_stream(vb, since).ok();
            }
            if !topo.index_managers.is_empty() || !topo.fts_services.is_empty() {
                slot.gsi = active.and_then(|src| src.open_dcp_stream(vb, self.gsi_cursors[v]).ok());
            }
        }
        self.holds.clear();
        self.built_epoch = topo.map.epoch;
    }
}

/// Offer `item` to one replica through the fault seam: apply it (once, or
/// twice for a duplicate), hold it, or drop it.
fn offer(
    attempts: &mut HashMap<(u16, u64, u32), u32>,
    injector: Option<&dyn FaultInjector>,
    item: &DcpItem,
    dst_node: NodeId,
    dst: &DataEngine,
) -> Offer {
    let action = match injector {
        Some(inj) => {
            let site = (item.vb.0, item.meta.seqno.0, dst_node.0);
            let attempt = *attempts.entry(site).or_insert(0);
            let a = inj.repl_delivery(item.vb, item.meta.seqno, dst_node, attempt);
            if a == FaultAction::Drop {
                attempts.insert(site, attempt + 1);
            } else {
                attempts.remove(&site);
            }
            a
        }
        None => FaultAction::Deliver,
    };
    let copies = match action {
        FaultAction::Deliver => 1,
        FaultAction::Duplicate => 2,
        // The pump never sleeps on a slow link: a delay of `d` holds this
        // destination for ⌈d / IDLE_SLEEP⌉ cycles (at least one), the
        // cycles an idle pump spends in `d`.
        FaultAction::Delay(d) => {
            return Offer::Held(d.as_nanos().div_ceil(IDLE_SLEEP.as_nanos()).max(1) as u64)
        }
        FaultAction::Drop => return Offer::Dropped,
    };
    land(dst, item, copies)
}

/// Apply `item` to a replica `copies` times. A replica out of memory
/// refuses the item without advancing its high seqno; the refusal counts
/// as a drop, so the rebuilt stream redelivers the item instead of the
/// pump moving past it and leaving a hole in the replica.
fn land(dst: &DataEngine, item: &DcpItem, copies: usize) -> Offer {
    // Stitch the originating op's trace across the pump: the deliver span
    // covers the replica apply, which nests its own span under this one via
    // the ambient context.
    let _deliver = match (item.trace, dst.trace_sink()) {
        (Some(ctx), Some(sink)) => Some(sink.child_of(ctx, "cluster.replication.deliver")),
        _ => None,
    };
    for _ in 0..copies {
        if let Err(Error::TempOom) = dst.apply_replica(item) {
            return Offer::Dropped;
        }
    }
    Offer::Landed
}

/// The production pump thread: it cycles one bucket's [`Pump`], sleeping
/// [`IDLE_SLEEP`] after every cycle that moved nothing.
pub struct ReplicationPump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicationPump {
    /// Spawn the thread that cycles `pump`.
    pub fn spawn(mut pump: Pump) -> ReplicationPump {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("dcp-pump-{}", pump.bucket))
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    if pump.cycle() == 0 {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                }
            })
            .expect("spawn replication pump");
        ReplicationPump { stop, handle: Some(handle) }
    }

    /// Stop the pump.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ReplicationPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, SmartClient};
    use cbs_common::{vbucket_for_key, DocMeta};
    use cbs_json::Value;
    use cbs_kv::{EngineConfig, VbState};

    /// Delays every delivery of the listed `(vb, seqno)` sites by 2 ms,
    /// i.e. two pump cycles; delivers everything else.
    #[derive(Debug)]
    struct DelaySites(Vec<(u16, u64)>);

    impl FaultInjector for DelaySites {
        fn repl_delivery(&self, vb: VbId, seqno: SeqNo, _: NodeId, _: u32) -> FaultAction {
            if self.0.contains(&(vb.0, seqno.0)) {
                FaultAction::Delay(Duration::from_millis(2))
            } else {
                FaultAction::Deliver
            }
        }
    }

    /// A 2-node, 2-vBucket, 1-replica cluster stepped by hand.
    fn stepped(sites: Vec<(u16, u64)>) -> (Arc<Cluster>, Pump, SmartClient) {
        let cfg = ClusterConfig::for_chaos(2, 1, Arc::new(DelaySites(sites)));
        let cluster = Cluster::homogeneous(2, cfg);
        let pump = cluster.create_bucket_stepped("b").unwrap();
        let client = SmartClient::connect(Arc::clone(&cluster), "b").unwrap();
        (cluster, pump, client)
    }

    /// The `nth` key that hashes to `vb` of 2.
    fn key_in(vb: u16, nth: usize) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .filter(|k| vbucket_for_key(k.as_bytes(), 2) == vb)
            .nth(nth)
            .unwrap()
    }

    fn replica(cluster: &Cluster, vb: u16) -> Arc<DataEngine> {
        let node = cluster.map("b").unwrap().replica_nodes(VbId(vb))[0];
        cluster.node(node).unwrap().engine("b").unwrap()
    }

    #[test]
    fn delay_holds_one_destination_in_order_while_others_flow() {
        let (cluster, mut pump, client) = stepped(vec![(0, 1)]);
        client.upsert(&key_in(0, 0), Value::int(1)).unwrap(); // vb0 seqno 1: delayed
        client.upsert(&key_in(1, 0), Value::int(1)).unwrap(); // vb1 seqno 1
        assert_eq!(pump.cycle(), 4, "two items, each drawn for replication and the index feed");
        assert_eq!(
            replica(&cluster, 1).high_seqno(VbId(1)),
            SeqNo(1),
            "vb1 lands in the same cycle"
        );
        assert_eq!(replica(&cluster, 0).high_seqno(VbId(0)), SeqNo::ZERO, "vb0 is held");

        client.upsert(&key_in(0, 1), Value::int(2)).unwrap(); // vb0 seqno 2: behind the hold
        pump.cycle();
        assert_eq!(
            replica(&cluster, 0).high_seqno(VbId(0)),
            SeqNo::ZERO,
            "the tail waits in order"
        );
        pump.cycle();
        let vb0 = replica(&cluster, 0);
        assert_eq!(vb0.high_seqno(VbId(0)), SeqNo(2), "the hold expired after two cycles");
        let landed: Vec<u64> = vb0
            .open_dcp_stream(VbId(0), SeqNo::ZERO)
            .unwrap()
            .drain_available()
            .iter()
            .map(|i| i.meta.seqno.0)
            .collect();
        assert_eq!(landed, [1, 2]);
    }

    #[test]
    fn a_killed_active_stops_streaming() {
        let (cluster, mut pump, client) = stepped(Vec::new());
        pump.cycle(); // open the streams
        client.upsert(&key_in(0, 0), Value::int(1)).unwrap();
        let active = cluster.map("b").unwrap().active_node(VbId(0));
        cluster.node(active).unwrap().kill();
        pump.cycle();
        assert_eq!(replica(&cluster, 0).high_seqno(VbId(0)), SeqNo::ZERO, "a dead node sent data");
    }

    #[test]
    fn a_replica_out_of_memory_refuses_without_a_hole() {
        let cfg = EngineConfig {
            cache_quota: 1 << 10,
            eviction: cbs_cache::EvictionPolicy::Full,
            ..EngineConfig::for_test(1)
        };
        let engine = DataEngine::new(cfg).unwrap();
        engine.set_vb_state(VbId(0), VbState::Replica);
        let item = |seq: u64| {
            let meta = DocMeta { seqno: SeqNo(seq), ..DocMeta::default() };
            DcpItem::mutation(VbId(0), format!("k{seq}"), meta, Value::int(seq as i64))
        };
        // No flusher runs, so every applied item stays dirty and the cache
        // soon cannot make room.
        let mut seq = 1;
        while matches!(land(&engine, &item(seq), 1), Offer::Landed) {
            seq += 1;
            assert!(seq < 1000, "the quota never filled");
        }
        assert_eq!(engine.high_seqno(VbId(0)), SeqNo(seq - 1), "the refused item left a hole");
    }

    #[test]
    fn epoch_bump_during_a_hold_still_converges() {
        let (cluster, mut pump, client) = stepped(vec![(0, 1)]);
        client.upsert(&key_in(0, 0), Value::int(1)).unwrap();
        pump.cycle();
        assert_eq!(replica(&cluster, 0).high_seqno(VbId(0)), SeqNo::ZERO, "vb0 is held");

        // The rebuild discards the hold and redelivers from the replica's
        // high seqno; the redelivery is delayed again, then lands.
        let mut map = cluster.map("b").unwrap();
        map.epoch += 1;
        cluster.debug_install_map("b", map).unwrap();
        client.upsert(&key_in(0, 1), Value::int(2)).unwrap();
        for _ in 0..3 {
            pump.cycle();
        }
        assert_eq!(replica(&cluster, 0).high_seqno(VbId(0)), SeqNo(2));
    }
}
