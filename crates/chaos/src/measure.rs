//! Chaos **measure mode**: how stale do reads actually get under faults?
//!
//! The checker ([`crate::check_history`]) answers a boolean question — is
//! the history *legal*? This module answers the quantitative one the
//! paper's asynchronous replication design (§4.1.1) raises: with a given
//! fault profile and topology schedule, what is the **probability of a
//! stale read**, and how stale are they — in logical time and in seqno
//! distance?
//!
//! A measured run drives a real [`Cluster`] single-threaded: the same
//! seeded op mix as the live chaos workers (`WorkOp`) through a
//! [`SmartClient`], the same topology events as the live coordinator
//! (`fire_event`, background rebalances inline), and the bucket's real
//! DCP pump with the seeded [`FaultPlan`] installed, stepped by
//! [`Pump::cycle`] instead of its thread. A live multi-threaded run can
//! never produce byte-identical numbers — thread interleaving moves the
//! pump relative to the workload. Here the pump cycles once every
//! [`PUMP_EVERY_OPS`] ops (and while a durable put waits for its observe),
//! so the same seed always yields the same `BENCH_staleness_<profile>.json`
//! and staleness regressions diff exactly like fig15/fig16 throughput
//! regressions. A kill stops the dead active's stream at the next cycle,
//! so failover loses whatever had not replicated yet: up to
//! `PUMP_EVERY_OPS` ops of tail, plus any delivery a `Delay` still held.
//!
//! Every read is judged against the key's **most recently acked
//! mutation**: observing any other version is a stale read, aged both in
//! ticks (ops) since that ack and in seqno distance. Lost-but-acked writes
//! that a later ack supersedes stop counting — that is the checker's
//! (lost-write) territory, not staleness.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{Cluster, ClusterConfig, Durability, Pump, SmartClient};
use cbs_common::Error;
use cbs_kv::MutationResult;
use cbs_obs::{Counter, Registry, WindowedHistogram};

use crate::history::{History, HistoryRecorder};
use crate::plan::FaultPlan;
use crate::workload::{
    connect, fire_event, ChaosConfig, Observed, Schedule, TopoKind, WorkOp, BUCKET,
};

/// Logical ticks (= workload ops) per staleness-age window. The windowed
/// `chaos.staleness.age_*` histograms rotate on this logical clock, so a
/// snapshot mid-run answers "how stale are reads *now*".
pub const TICKS_PER_WINDOW: u64 = 128;

/// The pump cycles once every `PUMP_EVERY_OPS` workload ops, before the
/// op, so a mutation reaches its replicas 1 to 3 ops after its ack. This
/// is the replication latency failover truncates: the live client acks
/// from the active copy while the pump replicates on its ~1 ms cadence.
pub const PUMP_EVERY_OPS: usize = 3;

/// Pump cycles a durable put may spend waiting for its observe. A hold
/// lasts at most ⌈max delay / 1 ms⌉ cycles and a site drops at most
/// twice, so a live replica catches up well within it; a miss records the
/// put non-durable, as the live worker records an observe timeout.
const DURABLE_CYCLES: usize = 16;

/// The key's most recently *acked* mutation (ack order, not seqno order:
/// a later ack supersedes an earlier one even if the earlier one's seqno
/// was lost to failover).
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    tick: u64,
    seqno: u64,
    /// The value written, `None` for a delete.
    value: Option<i64>,
    /// Seqno of the key's last acked delete (0 = none): the version a
    /// not-found read is taken to have seen.
    tombstone: u64,
}

/// Staleness numbers for one workload phase (the span between two
/// topology events).
#[derive(Debug, Clone)]
pub struct PhaseStaleness {
    /// Phase label: `"baseline"` before the first event, then the event
    /// that started the phase, suffixed with its op threshold.
    pub phase: String,
    /// Reads that returned a value judgement (failed reads excluded).
    pub reads: u64,
    /// Reads that observed an older seqno than the key's last acked
    /// mutation.
    pub stale_reads: u64,
    /// Staleness age percentiles in logical ticks: `[p50, p95, p99, max]`
    /// over the phase's stale reads (all zero when none).
    pub age_ticks: [u64; 4],
    /// The same percentiles in seqno distance.
    pub age_seqnos: [u64; 4],
}

impl PhaseStaleness {
    /// Probability a read in this phase was stale.
    pub fn p_stale(&self) -> f64 {
        ratio(self.stale_reads, self.reads)
    }
}

fn ratio(stale_reads: u64, reads: u64) -> f64 {
    if reads == 0 {
        0.0
    } else {
        stale_reads as f64 / reads as f64
    }
}

/// Result of one measure-mode run.
#[derive(Debug)]
pub struct StalenessOutcome {
    /// Seed that drove workload, faults and victim selection.
    pub seed: u64,
    /// Fault profile name.
    pub profile: String,
    /// Topology schedule name.
    pub schedule: String,
    /// Total workload operations run.
    pub ops: usize,
    /// Per-phase staleness breakdown, in schedule order.
    pub phases: Vec<PhaseStaleness>,
    /// The recorded op/event history (same recorder the live harness
    /// uses, so the checker can audit a measured run too).
    pub history: History,
    /// Registry carrying the `chaos.staleness.*` metrics of this run.
    pub registry: Arc<Registry>,
}

impl StalenessOutcome {
    /// Total judged reads across phases.
    pub fn reads(&self) -> u64 {
        self.phases.iter().map(|p| p.reads).sum()
    }

    /// Total stale reads across phases.
    pub fn stale_reads(&self) -> u64 {
        self.phases.iter().map(|p| p.stale_reads).sum()
    }

    /// Run-wide probability of a stale read.
    pub fn p_stale(&self) -> f64 {
        ratio(self.stale_reads(), self.reads())
    }

    /// The run as a `BENCH_staleness_<profile>.json` document.
    pub fn to_json(&self) -> String {
        bench_json(self.seed, None, &self.profile, &self.schedule, self.ops, &self.phases)
    }
}

/// A `BENCH_staleness_<profile>.json` document, built by hand with fully
/// determined field order and formatting: the same config must produce a
/// byte-identical file. `runs` is written for sweeps only.
fn bench_json(
    seed: u64,
    runs: Option<u64>,
    profile: &str,
    schedule: &str,
    ops: usize,
    phases: &[PhaseStaleness],
) -> String {
    let reads: u64 = phases.iter().map(|p| p.reads).sum();
    let stale_reads: u64 = phases.iter().map(|p| p.stale_reads).sum();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"staleness\",\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    if let Some(runs) = runs {
        s.push_str(&format!("  \"runs\": {runs},\n"));
    }
    s.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    s.push_str(&format!("  \"schedule\": \"{schedule}\",\n"));
    s.push_str(&format!("  \"ops\": {ops},\n"));
    s.push_str(&format!("  \"reads\": {reads},\n"));
    s.push_str(&format!("  \"stale_reads\": {stale_reads},\n"));
    s.push_str(&format!("  \"p_stale\": {:.4},\n", ratio(stale_reads, reads)));
    s.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let sep = if i + 1 < phases.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"phase\": \"{}\", \"reads\": {}, \"stale_reads\": {}, \
             \"p_stale\": {:.4}, \
             \"age_ticks\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}, \
             \"age_seqnos\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}{sep}\n",
            p.phase,
            p.reads,
            p.stale_reads,
            p.p_stale(),
            p.age_ticks[0],
            p.age_ticks[1],
            p.age_ticks[2],
            p.age_ticks[3],
            p.age_seqnos[0],
            p.age_seqnos[1],
            p.age_seqnos[2],
            p.age_seqnos[3],
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Per-phase accumulator (exact nearest-rank percentiles from the full
/// sample set — no bucket interpolation in the benchmark artifact).
struct PhaseAcc {
    phase: String,
    reads: u64,
    stale_reads: u64,
    ticks: Vec<u64>,
    seqnos: Vec<u64>,
}

impl PhaseAcc {
    fn new(phase: String) -> PhaseAcc {
        PhaseAcc { phase, reads: 0, stale_reads: 0, ticks: Vec::new(), seqnos: Vec::new() }
    }

    /// Fold another run's accumulator for the same structural phase in.
    fn merge(&mut self, other: PhaseAcc) {
        debug_assert_eq!(self.phase, other.phase);
        self.reads += other.reads;
        self.stale_reads += other.stale_reads;
        self.ticks.extend(other.ticks);
        self.seqnos.extend(other.seqnos);
    }

    fn finish(mut self) -> PhaseStaleness {
        PhaseStaleness {
            phase: self.phase,
            reads: self.reads,
            stale_reads: self.stale_reads,
            age_ticks: percentiles(&mut self.ticks),
            age_seqnos: percentiles(&mut self.seqnos),
        }
    }
}

/// Nearest-rank `[p50, p95, p99, max]` of a sample set.
fn percentiles(samples: &mut [u64]) -> [u64; 4] {
    if samples.is_empty() {
        return [0; 4];
    }
    samples.sort_unstable();
    let rank = |p: f64| {
        let idx = (p / 100.0 * samples.len() as f64).ceil() as usize;
        samples[idx.clamp(1, samples.len()) - 1]
    };
    [rank(50.0), rank(95.0), rank(99.0), samples[samples.len() - 1]]
}

fn label(kind: TopoKind, at: usize) -> String {
    let name = match kind {
        TopoKind::Kill => "kill",
        TopoKind::FailoverDead => "failover",
        TopoKind::ReviveAll => "revive",
        TopoKind::AddNode => "add-node",
        TopoKind::Rebalance { .. } => "rebalance",
    };
    format!("{name}@{at}")
}

/// The key's active node when it is down. A single-threaded run cannot
/// fail over mid-op, so the client's routing retries against a dead node
/// (and their backoff sleeps) can only end in this error; measure mode
/// records it without dispatching.
fn active_down(cluster: &Cluster, client: &SmartClient, key: &str) -> Option<Error> {
    let active = cluster.map(BUCKET).ok()?.active_node(client.vb_for_key(key));
    (!cluster.node(active).ok()?.is_alive()).then_some(Error::NodeDown(active))
}

/// Measure mode's durability wait: cycle the pump until a zero-timeout
/// observe passes, at most [`DURABLE_CYCLES`] times. Replication only: the
/// flushers run on their own threads, so waiting on persistence would make
/// the history timing-dependent.
fn observe_stepped(
    pump: &mut Pump,
    client: &SmartClient,
    key: &str,
    m: MutationResult,
    d: Durability,
) -> bool {
    let d = Durability { persist_to_master: false, ..d };
    for _ in 0..DURABLE_CYCLES {
        match client.observe(key, m, d, Duration::ZERO) {
            Err(Error::Timeout(_)) => {
                pump.cycle();
            }
            done => return done.is_ok(),
        }
    }
    client.observe(key, m, d, Duration::ZERO).is_ok()
}

/// One measured run: per-phase accumulators (raw samples kept so callers
/// can pool runs), the op/event history, and the metrics registry.
fn measure_run(cfg: &ChaosConfig) -> (Vec<PhaseAcc>, History, Arc<Registry>) {
    let plan = FaultPlan::new(cfg.profile.spec(cfg.seed));
    let ccfg = ClusterConfig::for_chaos(cfg.vbuckets, cfg.replicas, plan);
    let cluster = Cluster::homogeneous(cfg.nodes, ccfg);
    let mut pump = cluster.create_bucket_stepped(BUCKET).expect("create chaos bucket");
    let mut client = connect(&cluster).expect("connect to the chaos bucket");
    let rec = HistoryRecorder::new();
    let schedule = Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops);

    let registry = Arc::new(Registry::new("chaos"));
    let reads_ctr: Arc<Counter> = registry
        .counter_with_help("chaos.staleness.reads", "Reads judged for staleness in measure mode");
    let stale_ctr: Arc<Counter> = registry.counter_with_help(
        "chaos.staleness.stale_reads",
        "Reads that observed an older version than the key's last acked mutation",
    );
    let age_ticks_h: Arc<WindowedHistogram> = registry.windowed_histogram_with_help(
        "chaos.staleness.age_ticks",
        "Stale-read age in logical ticks since the superseding ack, over the live windows",
    );
    let age_seqnos_h: Arc<WindowedHistogram> = registry.windowed_histogram_with_help(
        "chaos.staleness.age_seqnos",
        "Stale-read age in seqno distance behind the key's last acked mutation, over the live \
         windows",
    );

    let mut acked: HashMap<String, AckedWrite> = HashMap::new();
    let mut phases: Vec<PhaseAcc> = Vec::new();
    let mut acc = PhaseAcc::new("baseline".to_string());
    let mut events = schedule.events.iter().enumerate().peekable();
    let workers = cfg.workers.max(1);
    let mut worker_op: Vec<u64> = vec![0; workers];
    let keys: Vec<Vec<String>> = (0..workers)
        .map(|w| (0..cfg.keys_per_worker).map(|i| format!("w{w}k{i}")).collect())
        .collect();

    for op in 0..cfg.ops {
        // Fire due topology events; each one closes the current phase.
        while let Some((i, ev)) = events.next_if(|(_, ev)| ev.at <= op) {
            phases.push(std::mem::replace(&mut acc, PhaseAcc::new(label(ev.kind, ev.at))));
            fire_event(&cluster, &rec, ev.kind, cfg.seed, i);
            // The map-update push the live workers get after every event.
            client = connect(&cluster).expect("connect to the chaos bucket");
        }
        if op % PUMP_EVERY_OPS == 0 {
            pump.cycle();
        }

        let tick = op as u64 + 1;
        age_ticks_h.advance_to(tick / TICKS_PER_WINDOW);
        age_seqnos_h.advance_to(tick / TICKS_PER_WINDOW);

        // Workers take turns, each drawing its own seeded op sequence.
        let w = op % workers;
        let work = WorkOp::pick(cfg, w, worker_op[w], &keys[w]);
        worker_op[w] += 1;
        let seen = match active_down(&cluster, &client, work.key) {
            Some(e) => {
                work.fail(&rec, &e);
                Observed::default()
            }
            None => {
                work.run(&client, &rec, |c, m, d| observe_stepped(&mut pump, c, work.key, m, d))
            }
        };

        if let Some((value, seqno)) = seen.read {
            acc.reads += 1;
            reads_ctr.inc();
            if let Some(last) = acked.get(work.key).filter(|last| last.value != value) {
                let seen_seqno = if value.is_some() { seqno } else { last.tombstone };
                let age_t = tick.saturating_sub(last.tick);
                let age_s = last.seqno.saturating_sub(seen_seqno);
                acc.stale_reads += 1;
                stale_ctr.inc();
                acc.ticks.push(age_t);
                acc.seqnos.push(age_s);
                age_ticks_h.record_nanos(age_t);
                age_seqnos_h.record_nanos(age_s);
            }
        }
        if let Some((value, seqno)) = seen.acked {
            let prior = acked.get(work.key).map_or(0, |last| last.tombstone);
            let tombstone = if value.is_none() { seqno } else { prior };
            acked.insert(work.key.to_string(), AckedWrite { tick, seqno, value, tombstone });
        }
    }
    phases.push(acc);
    // Every measured run builds a real cluster on disk; leave nothing behind.
    let data_root = cluster.config().data_root.clone();
    drop((pump, client, cluster));
    let _ = std::fs::remove_dir_all(data_root);

    (phases, rec.finish(), registry)
}

/// Run measure mode: drive `cfg` deterministically and return the
/// per-phase staleness numbers, history, and `chaos.staleness.*` metrics.
pub fn measure_staleness(cfg: &ChaosConfig) -> StalenessOutcome {
    let (accs, history, registry) = measure_run(cfg);
    StalenessOutcome {
        seed: cfg.seed,
        profile: cfg.profile.name().to_string(),
        schedule: Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops).name,
        ops: cfg.ops,
        phases: accs.into_iter().map(PhaseAcc::finish).collect(),
        history,
        registry,
    }
}

/// Phase-aligned aggregate of [`measure_staleness`] over `runs`
/// consecutive seeds (`cfg.seed`, `cfg.seed + 1`, ...).
///
/// A single run holds at most one failover window, so its stale-read
/// count is a coin flip, not a probability. The named schedules fire at
/// fixed op thresholds — phases are structural, identical across seeds —
/// so the sweep pools every run's samples phase-wise, making per-phase
/// `p_stale` statistically meaningful while staying a pure function of
/// `(cfg, runs)`.
#[derive(Debug)]
pub struct StalenessSweep {
    /// First seed of the sweep.
    pub seed: u64,
    /// Number of consecutive seeds pooled.
    pub runs: u64,
    /// Fault profile name.
    pub profile: String,
    /// Topology schedule name.
    pub schedule: String,
    /// Workload operations **per run**.
    pub ops: usize,
    /// Phase-wise pooled staleness (percentiles over all runs' samples).
    pub phases: Vec<PhaseStaleness>,
}

impl StalenessSweep {
    /// Total judged reads across runs and phases.
    pub fn reads(&self) -> u64 {
        self.phases.iter().map(|p| p.reads).sum()
    }

    /// Total stale reads across runs and phases.
    pub fn stale_reads(&self) -> u64 {
        self.phases.iter().map(|p| p.stale_reads).sum()
    }

    /// Sweep-wide probability of a stale read.
    pub fn p_stale(&self) -> f64 {
        ratio(self.stale_reads(), self.reads())
    }

    /// The sweep as a `BENCH_staleness_<profile>.json` document, with the
    /// `runs` field.
    pub fn to_json(&self) -> String {
        let runs = Some(self.runs);
        bench_json(self.seed, runs, &self.profile, &self.schedule, self.ops, &self.phases)
    }
}

/// Pool `runs` measure-mode runs under consecutive seeds, phase-wise.
///
/// Requires a schedule whose event thresholds do not depend on the seed
/// (every named schedule except `"seeded"`) so phases line up.
pub fn measure_staleness_sweep(cfg: &ChaosConfig, runs: u64) -> StalenessSweep {
    assert!(runs > 0, "a sweep needs at least one run");
    assert!(cfg.schedule != "seeded", "the seeded schedule varies per seed; phases cannot pool");
    let mut agg: Option<Vec<PhaseAcc>> = None;
    for i in 0..runs {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(i);
        let (accs, _, _) = measure_run(&c);
        match &mut agg {
            None => agg = Some(accs),
            Some(agg) => {
                for (a, b) in agg.iter_mut().zip(accs) {
                    a.merge(b);
                }
            }
        }
    }
    StalenessSweep {
        seed: cfg.seed,
        runs,
        profile: cfg.profile.name().to_string(),
        schedule: Schedule::by_name(&cfg.schedule, cfg.seed, cfg.ops).name,
        ops: cfg.ops,
        phases: agg.unwrap_or_default().into_iter().map(PhaseAcc::finish).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Profile;

    fn cfg(seed: u64) -> ChaosConfig {
        let mut c = ChaosConfig::new(seed);
        c.profile = Profile::Lossy;
        c.schedule = "failover-no-revive".to_string();
        c
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = measure_staleness(&cfg(42));
        let b = measure_staleness(&cfg(42));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let a = measure_staleness(&cfg(1));
        let b = measure_staleness(&cfg(2));
        assert_ne!(a.to_json(), b.to_json(), "distinct seeds produced identical staleness JSON");
    }

    #[test]
    fn fault_profile_changes_the_measurement() {
        // Jittery delays deepen replica lag, so some seed must separate
        // the profiles on more than the label in the JSON.
        let differs = (0..8u64).any(|s| {
            let mut quiet = cfg(s);
            quiet.profile = Profile::Quiet;
            let mut jittery = cfg(s);
            jittery.profile = Profile::Jittery;
            let (a, b) = (measure_staleness(&quiet), measure_staleness(&jittery));
            a.stale_reads() != b.stale_reads()
                || a.phases.iter().zip(&b.phases).any(|(x, y)| x.age_ticks != y.age_ticks)
        });
        assert!(differs, "fault profile had no effect on staleness in seeds 0..8");
    }

    #[test]
    fn failover_without_revive_produces_stale_reads() {
        // Across a handful of seeds, losing an unreplicated tail to
        // failover must surface at least one stale read.
        let any_stale = (0..8u64).any(|s| measure_staleness(&cfg(s)).stale_reads() > 0);
        assert!(any_stale, "no seed in 0..8 produced a stale read under failover-no-revive");
    }

    #[test]
    fn quiet_baseline_reads_are_never_stale() {
        let mut c = ChaosConfig::new(7);
        c.profile = Profile::Quiet;
        c.schedule = "baseline".to_string();
        let out = measure_staleness(&c);
        assert!(out.reads() > 0);
        assert_eq!(out.stale_reads(), 0, "quiet baseline produced stale reads");
        assert_eq!(out.phases.len(), 1);
        assert_eq!(out.phases[0].phase, "baseline");
    }

    #[test]
    fn phases_split_on_schedule_events() {
        let out = measure_staleness(&cfg(5));
        // failover-no-revive = Kill@30% + FailoverDead@40% → 3 phases.
        let names: Vec<&str> = out.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(out.phases.len(), 3, "phases: {names:?}");
        assert_eq!(names[0], "baseline");
        assert!(names[1].starts_with("kill@"), "phases: {names:?}");
        assert!(names[2].starts_with("failover@"), "phases: {names:?}");
        let total: u64 = out.phases.iter().map(|p| p.reads).sum();
        assert_eq!(total, out.reads());
    }

    #[test]
    fn metrics_ride_the_registry() {
        let out = measure_staleness(&cfg(9));
        let snap = out.registry.snapshot();
        assert_eq!(snap.counter("chaos.staleness.reads"), out.reads());
        assert_eq!(snap.counter("chaos.staleness.stale_reads"), out.stale_reads());
        // The windowed age histograms rotated on the logical clock right
        // up to the final tick.
        let final_epoch = out.ops as u64 / TICKS_PER_WINDOW;
        assert_eq!(snap.windowed("chaos.staleness.age_ticks").epoch, final_epoch);
        assert_eq!(snap.windowed("chaos.staleness.age_seqnos").epoch, final_epoch);
        assert!(snap.windowed("chaos.staleness.age_ticks").merged.count() <= out.stale_reads());
    }

    #[test]
    fn history_is_recorded_for_the_checker() {
        let out = measure_staleness(&cfg(3));
        assert!(!out.history.is_empty());
        assert!(out.history.events.iter().any(|e| e.lossy), "failover events must be marked lossy");
    }

    #[test]
    fn sweep_pools_runs_phasewise() {
        let sweep = measure_staleness_sweep(&cfg(0), 8);
        let reads: u64 = (0..8).map(|s| measure_staleness(&cfg(s)).reads()).sum();
        let stale: u64 = (0..8).map(|s| measure_staleness(&cfg(s)).stale_reads()).sum();
        assert_eq!(sweep.reads(), reads, "sweep must pool every run's reads");
        assert_eq!(sweep.stale_reads(), stale, "sweep must pool every run's stale reads");
        assert!(sweep.stale_reads() > 0, "8 failover runs pooled should show staleness");
        assert_eq!(sweep.phases.len(), 3, "phases are structural across seeds");
        // Replay contract: same (cfg, runs) ⇒ byte-identical JSON.
        assert_eq!(sweep.to_json(), measure_staleness_sweep(&cfg(0), 8).to_json());
    }

    #[test]
    fn measured_histories_are_legal() {
        for profile in [Profile::Quiet, Profile::Lossy, Profile::Jittery] {
            for s in 0..8u64 {
                let c = ChaosConfig { profile, ..cfg(s) };
                let violations = crate::check_history(&measure_staleness(&c).history);
                assert!(
                    violations.is_empty(),
                    "measured history of seed {s}, profile {} breaks the checker: {violations:?}",
                    profile.name(),
                );
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut one = vec![7];
        assert_eq!(percentiles(&mut one), [7, 7, 7, 7]);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentiles(&mut v), [50, 95, 99, 100]);
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(percentiles(&mut empty), [0, 0, 0, 0]);
    }
}
