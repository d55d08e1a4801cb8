//! The Policy Service.
//!
//! [`PolicyService`] is the component the paper's Fig. 1 calls "Policy
//! Service / policy engine": it owns a rule session (policy rules + policy
//! memory), accepts transfer/cleanup request lists, runs the rules, and
//! returns modified lists with advice. State persists across requests "for
//! the length of transfer and cleanup requests", plus the staged-file
//! locations that outlive completed transfers.

use crate::advice::{
    CleanupAction, CleanupAdvice, CleanupOutcome, TransferAction, TransferAdvice, TransferOutcome,
};
use crate::audit::{AuditLog, AuditRecord, PolicyEvent};
use crate::balanced::install_balanced_rules;
use crate::chaos::SharedSimClock;
use crate::config::{OrderingPolicy, PolicyConfig};
use crate::ctx::PolicyCtx;
use crate::durable::{
    read_recovery, Durability, DurabilityConfig, DurableFact, DurableState, WalCommand, WalRecord,
};
use crate::greedy::install_greedy_rules;
use crate::model::SuppressReason;
use crate::model::{
    BackendDownFact, BackendLoadFact, BackendProfileFact, CleanupFact, CleanupId, CleanupSpec,
    CleanupState, ClusterAllocFact, HealthEvent, HostDownFact, HostPairFact, ResourceFact,
    ResourceState, StagedOnFact, SuspectReplicaFact, TransferFact, TransferId, TransferSpec,
    TransferState,
};
use crate::recovery_rules::install_recovery_rules;
use crate::rules_base::{install_base_rules, resource_for, transfer_pair_key};
use crate::storage_rules::install_storage_rules;
use pwm_obs::{Counter, Gauge, Histogram, Obs};
use pwm_rules::Session;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counters the service keeps for monitoring and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Transfer requests received.
    pub transfer_requests: u64,
    /// Transfers advised to execute.
    pub transfers_executed: u64,
    /// Transfers removed from the list (duplicates, already staged, ...).
    pub transfers_suppressed: u64,
    /// Transfer completions reported.
    pub transfers_completed: u64,
    /// Transfer failures reported.
    pub transfers_failed: u64,
    /// Cleanup requests received.
    pub cleanup_requests: u64,
    /// Cleanups advised to execute.
    pub cleanups_executed: u64,
    /// Cleanups removed from the list.
    pub cleanups_suppressed: u64,
    /// Total rule firings across all evaluations.
    pub rule_firings: u64,
}

/// Per-rule engine counters, as exposed through monitoring (`GET /status`).
///
/// `evaluations` staying flat across requests is the observable proof that
/// the incremental agenda is not re-running matchers whose watched fact
/// types are clean.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCounters {
    /// Rule name.
    pub name: String,
    /// Rule salience.
    pub salience: i32,
    /// Matcher (re-)evaluations since service start.
    pub evaluations: u64,
    /// Fact tuples produced across evaluations.
    pub matches: u64,
    /// Action firings.
    pub firings: u64,
    /// Cumulative matcher wall-clock time, nanoseconds.
    pub eval_nanos: u64,
}

impl From<pwm_rules::RuleStats> for RuleCounters {
    fn from(s: pwm_rules::RuleStats) -> Self {
        RuleCounters {
            name: s.name.as_ref().to_string(),
            salience: s.salience,
            evaluations: s.evaluations,
            matches: s.matches,
            firings: s.firings,
            eval_nanos: s.eval_nanos,
        }
    }
}

/// A point-in-time view of policy memory (the `GET /status` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    /// Transfers handed out and not yet reported.
    pub in_progress_transfers: usize,
    /// Files known to be staged at their destination.
    pub staged_files: usize,
    /// Files currently being staged.
    pub staging_files: usize,
    /// Cleanups handed out and not yet reported.
    pub in_progress_cleanups: usize,
    /// Per host pair: (src, dst, currently allocated, peak allocated).
    pub host_pairs: Vec<HostPairSnapshot>,
}

/// One host pair's ledger state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostPairSnapshot {
    /// Source host.
    pub src_host: String,
    /// Destination host.
    pub dst_host: String,
    /// Streams currently allocated.
    pub allocated: u32,
    /// High-water mark of allocated streams (Table IV's quantity).
    pub peak_allocated: u32,
}

/// Observability attachment for one service: shared metrics registry plus a
/// per-session tracer, with the delta baseline for publishing [`ServiceStats`]
/// as monotone counters.
struct ServiceObs {
    obs: Obs,
    /// The session name, labeling every metric as `session="..."`.
    session: String,
    /// Optional sim clock: when present, evaluations also emit trace
    /// instants stamped with simulated time (deterministic across runs).
    clock: Option<SharedSimClock>,
    /// Stats as of the previous publish, so counters receive deltas.
    last: ServiceStats,
    /// Audit-ring evictions as of the previous publish.
    last_audit_dropped: u64,
}

impl ServiceObs {
    /// The base labels as the borrowed slice shape the registry expects.
    fn label_refs(&self) -> Vec<(&str, &str)> {
        vec![("session", self.session.as_str())]
    }

    /// Advice latency histogram for one request kind (wall-clock, metrics
    /// only — never written into traces, which must stay deterministic).
    fn advice_latency(&self, kind: &'static str) -> Histogram {
        let mut labels = self.label_refs();
        labels.push(("kind", kind));
        self.obs.registry.histogram(
            "pwm_policy_advice_latency_micros",
            "Wall-clock latency of one policy evaluation (rule firing pass), microseconds",
            &labels,
        )
    }

    fn counter(&self, name: &str, help: &str) -> Counter {
        self.obs.registry.counter(name, help, &self.label_refs())
    }

    fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.obs.registry.gauge(name, help, &self.label_refs())
    }

    /// Publish the delta between `stats` and the last published snapshot
    /// onto the registry's counters.
    fn publish_stats(&mut self, stats: ServiceStats) {
        let pairs: [(&str, &str, u64, u64); 9] = [
            (
                "pwm_policy_transfer_requests_total",
                "Transfer requests received",
                stats.transfer_requests,
                self.last.transfer_requests,
            ),
            (
                "pwm_policy_transfers_executed_total",
                "Transfers advised to execute",
                stats.transfers_executed,
                self.last.transfers_executed,
            ),
            (
                "pwm_policy_transfers_suppressed_total",
                "Transfers removed from the request list",
                stats.transfers_suppressed,
                self.last.transfers_suppressed,
            ),
            (
                "pwm_policy_transfers_completed_total",
                "Transfer completions reported",
                stats.transfers_completed,
                self.last.transfers_completed,
            ),
            (
                "pwm_policy_transfers_failed_total",
                "Transfer failures reported",
                stats.transfers_failed,
                self.last.transfers_failed,
            ),
            (
                "pwm_policy_cleanup_requests_total",
                "Cleanup requests received",
                stats.cleanup_requests,
                self.last.cleanup_requests,
            ),
            (
                "pwm_policy_cleanups_executed_total",
                "Cleanups advised to execute",
                stats.cleanups_executed,
                self.last.cleanups_executed,
            ),
            (
                "pwm_policy_cleanups_suppressed_total",
                "Cleanups removed from the request list",
                stats.cleanups_suppressed,
                self.last.cleanups_suppressed,
            ),
            (
                "pwm_policy_rule_firings_total",
                "Rule firings across all evaluations",
                stats.rule_firings,
                self.last.rule_firings,
            ),
        ];
        for (name, help, now, then) in pairs {
            let delta = now.saturating_sub(then);
            if delta > 0 {
                self.counter(name, help).add(delta);
            }
        }
        self.last = stats;
    }
}

/// The policy engine: rule session + policy memory + request orchestration.
pub struct PolicyService {
    session: Session<PolicyCtx>,
    ctx: PolicyCtx,
    next_transfer: u64,
    next_cleanup: u64,
    stats: ServiceStats,
    audit: AuditLog,
    obs: Option<ServiceObs>,
    durability: Option<Durability>,
    /// When the occupancy gauges were last swept (throttling clock; not
    /// part of durable state — it only paces metric publication).
    last_gauge_sweep: Option<Instant>,
    /// Whether the already-staged-duplicate short circuit is taken (see
    /// [`PolicyService::try_fast_staged_duplicate`]). Always on in
    /// production; tests flip it off to prove the short circuit and the
    /// full rules pass agree.
    fast_path: bool,
}

/// Resident-fact count up to which occupancy gauges are refreshed on every
/// evaluation pass, so unit tests and small sessions always scrape fresh
/// values (above it the sweep is time-throttled — see
/// [`GAUGE_SWEEP_INTERVAL`]).
const GAUGE_SWEEP_RESIDENT_CAP: usize = 512;

/// Once policy memory outgrows [`GAUGE_SWEEP_RESIDENT_CAP`], the O(memory)
/// gauge sweep runs at most once per this interval. Gauges feed scrapes,
/// which arrive on a seconds cadence — refreshing them per evaluation
/// would put an O(resident facts) sweep on every advice request.
const GAUGE_SWEEP_INTERVAL: Duration = Duration::from_millis(100);

impl PolicyService {
    /// Build a service enforcing `config`. All rule sets are installed; the
    /// config's [`crate::config::AllocationPolicy`] selects which allocation
    /// rules actually match.
    pub fn new(config: PolicyConfig) -> Self {
        let mut session = Session::new();
        install_base_rules(&mut session);
        install_greedy_rules(&mut session);
        install_balanced_rules(&mut session);
        install_storage_rules(&mut session);
        install_recovery_rules(&mut session);
        let audit = AuditLog::with_capacity(config.audit_retention());
        let mut svc = PolicyService {
            session,
            ctx: PolicyCtx::new(config),
            next_transfer: 0,
            next_cleanup: 0,
            stats: ServiceStats::default(),
            audit,
            obs: None,
            durability: None,
            last_gauge_sweep: None,
            fast_path: true,
        };
        svc.sync_backend_profiles();
        svc
    }

    /// Mirror [`PolicyConfig::backends`] into policy memory as
    /// `BackendProfileFact`s (retract-and-reinsert, so reconfiguration
    /// replaces the set). Profile facts are config-derived, never
    /// snapshotted: recovery re-derives them from the restored config.
    fn sync_backend_profiles(&mut self) {
        for h in self.session.wm.handles::<BackendProfileFact>() {
            self.session.wm.retract(h);
        }
        for b in self.ctx.config.backends.clone() {
            self.session.wm.insert(BackendProfileFact {
                profile: b.profile,
                site: b.site,
            });
        }
    }

    /// Attach observability: service counters, gauges, and advice-latency
    /// histograms go to `obs.registry` labeled `session=<session>`; trace
    /// instants go to `obs.tracer` once a sim clock is attached with
    /// [`PolicyService::set_sim_clock`]. Per-rule engine counters are
    /// published to the same registry.
    pub fn set_obs(&mut self, obs: Obs, session: &str) {
        self.session
            .set_obs(obs.registry.clone(), &[("session", session)]);
        self.obs = Some(ServiceObs {
            obs,
            session: session.to_string(),
            clock: None,
            last: self.stats,
            last_audit_dropped: self.audit.dropped(),
        });
    }

    /// Turn on durability: a base snapshot of the current state is written
    /// to `cfg.dir` and every state-mutating request is logged there
    /// before it is applied. Enabling on a recovered service compacts
    /// naturally — the resumed log starts from the fresh snapshot.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) -> io::Result<()> {
        // Drop any previous sink first so the snapshot's applied_seq
        // describes a fresh log epoch.
        self.durability = None;
        let state = self.durable_state();
        self.durability = Some(Durability::create(cfg, &state)?);
        Ok(())
    }

    /// True when an injected crash point has frozen the durability sink.
    pub fn durability_crashed(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.crashed())
    }

    /// Rebuild a service from a durability directory: load the last
    /// snapshot and replay the surviving log suffix through the
    /// deterministic engine. The result is `PartialEq`-identical (facts,
    /// ids, ledgers, stats, audit numbering) to the uninterrupted service
    /// at the last durable command. Durability is *not* re-enabled; call
    /// [`PolicyService::enable_durability`] to resume logging.
    pub fn recover_from(dir: &Path) -> io::Result<PolicyService> {
        let recovered = read_recovery(dir)?;
        let mut svc = PolicyService::from_durable_state(recovered.state);
        for record in recovered.records {
            svc.apply_command(record.cmd);
        }
        Ok(svc)
    }

    /// Append a mutating command to the WAL before applying it (redo
    /// logging). A write failure disables durability rather than failing
    /// the advisory service.
    fn log_command(&mut self, cmd: WalCommand) {
        if let Some(d) = &mut self.durability {
            let record = WalRecord {
                seq: d.next_seq(),
                cmd,
            };
            if let Err(e) = d.append(&record) {
                pwm_obs::global_logger()
                    .error(&format!("WAL append failed; durability disabled: {e}"));
                self.durability = None;
            }
        }
    }

    /// Snapshot + compact if the sink says one is due. Runs at the *end*
    /// of each mutating method, after the logged command's effects are in
    /// the state — a snapshot taken at log time would stamp an
    /// `applied_seq` for effects not yet applied.
    fn maybe_snapshot(&mut self) {
        if !self
            .durability
            .as_ref()
            .is_some_and(|d| d.snapshot_pending())
        {
            return;
        }
        let state = self.durable_state();
        if let Some(d) = &mut self.durability {
            if let Err(e) = d.write_snapshot(&state) {
                pwm_obs::global_logger()
                    .error(&format!("snapshot write failed; durability disabled: {e}"));
                self.durability = None;
            }
        }
    }

    /// Replay one logged command (advice output is discarded — the crashed
    /// process already delivered it).
    fn apply_command(&mut self, cmd: WalCommand) {
        match cmd {
            WalCommand::EvaluateTransfers(batch) => {
                self.evaluate_transfers(batch);
            }
            WalCommand::EvaluateTransferGroups(groups) => {
                self.evaluate_transfer_groups(groups);
            }
            WalCommand::ReportTransfers(outcomes) => self.report_transfers(outcomes),
            WalCommand::EvaluateCleanups(batch) => {
                self.evaluate_cleanups(batch);
            }
            WalCommand::ReportCleanups(outcomes) => self.report_cleanups(outcomes),
            WalCommand::SetConfig(config) => self.set_config(config),
            WalCommand::ReportHealth(events) => self.report_health(events),
        }
    }

    /// The complete serializable state of this session (snapshot payload).
    /// Facts are captured in global insertion order, which working-memory
    /// iteration — and therefore advice ordering — observes.
    pub fn durable_state(&self) -> DurableState {
        let wm = &self.session.wm;
        let mut facts: Vec<(pwm_rules::FactHandle, DurableFact)> = Vec::new();
        facts.extend(
            wm.iter::<TransferFact>()
                .map(|(h, f)| (h, DurableFact::Transfer(f.clone()))),
        );
        facts.extend(
            wm.iter::<ResourceFact>()
                .map(|(h, f)| (h, DurableFact::Resource(f.clone()))),
        );
        facts.extend(
            wm.iter::<CleanupFact>()
                .map(|(h, f)| (h, DurableFact::Cleanup(f.clone()))),
        );
        facts.extend(
            wm.iter::<HostPairFact>()
                .map(|(h, f)| (h, DurableFact::HostPair(f.clone()))),
        );
        facts.extend(
            wm.iter::<ClusterAllocFact>()
                .map(|(h, f)| (h, DurableFact::ClusterAlloc(f.clone()))),
        );
        facts.extend(
            wm.iter::<StagedOnFact>()
                .map(|(h, f)| (h, DurableFact::StagedOn(f.clone()))),
        );
        facts.extend(
            wm.iter::<BackendLoadFact>()
                .map(|(h, f)| (h, DurableFact::BackendLoad(f.clone()))),
        );
        facts.extend(
            wm.iter::<HostDownFact>()
                .map(|(h, f)| (h, DurableFact::HostDown(f.clone()))),
        );
        facts.extend(
            wm.iter::<BackendDownFact>()
                .map(|(h, f)| (h, DurableFact::BackendDown(f.clone()))),
        );
        facts.extend(
            wm.iter::<SuspectReplicaFact>()
                .map(|(h, f)| (h, DurableFact::SuspectReplica(f.clone()))),
        );
        facts.sort_by_key(|(h, _)| *h);
        DurableState {
            applied_seq: self.durability.as_ref().map_or(0, |d| d.next_seq() - 1),
            config: self.ctx.config.clone(),
            next_transfer: self.next_transfer,
            next_cleanup: self.next_cleanup,
            next_group: self.ctx.groups_minted(),
            stats: self.stats,
            audit_capacity: self.audit.capacity(),
            audit_next_seq: self.audit.total_recorded(),
            audit_records: self.audit.records(),
            facts: facts.into_iter().map(|(_, f)| f).collect(),
            summary: self.snapshot(),
        }
    }

    /// Rebuild a service from a snapshot. Facts are re-inserted in their
    /// original global order, so the fresh handles preserve iteration
    /// order. The restored memory is quiescent: every rule guard requires
    /// an in-batch or just-reported fact, so the next `fire_all` fires
    /// nothing until new requests arrive.
    pub fn from_durable_state(state: DurableState) -> Self {
        let mut svc = PolicyService::new(state.config.clone());
        svc.ctx = PolicyCtx::restore(state.config, state.next_group);
        svc.next_transfer = state.next_transfer;
        svc.next_cleanup = state.next_cleanup;
        svc.stats = state.stats;
        svc.audit = AuditLog::restore(
            state.audit_capacity,
            state.audit_next_seq,
            state.audit_records,
        );
        for fact in state.facts {
            match fact {
                DurableFact::Transfer(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::Resource(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::Cleanup(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::HostPair(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::ClusterAlloc(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::StagedOn(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::BackendLoad(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::HostDown(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::BackendDown(f) => {
                    svc.session.wm.insert(f);
                }
                DurableFact::SuspectReplica(f) => {
                    svc.session.wm.insert(f);
                }
            }
        }
        debug_assert_eq!(
            svc.snapshot(),
            state.summary,
            "restored memory must reproduce the snapshot summary"
        );
        svc
    }

    /// Attach a shared simulated clock. Evaluations then emit trace
    /// instants stamped with sim time (kept out of traces otherwise, since
    /// a wall-clock stamp would break same-seed trace determinism).
    pub fn set_sim_clock(&mut self, clock: SharedSimClock) {
        if let Some(o) = &mut self.obs {
            o.clock = Some(clock);
        }
    }

    /// Record one evaluation pass on the attached observability sinks:
    /// latency histogram, stats counter deltas, occupancy gauges, and (with
    /// a sim clock) a trace instant.
    fn note_evaluation(&mut self, kind: &'static str, micros: u64, batch: usize, firings: usize) {
        if self.obs.is_none() {
            return;
        }
        let stats = self.stats;
        let audit_dropped = self.audit.dropped();
        // Occupancy gauges require a sweep over every resident fact (plus a
        // label-set lookup per host pair), which is O(memory) work per
        // evaluation — the dominant cost once policy memory holds tens of
        // thousands of facts. Publish them on every pass while memory is
        // small (so tests and small sessions observe fresh gauges), then
        // decimate. Counters and latency histograms stay per-pass.
        let publish_gauges = self.session.wm.len() <= GAUGE_SWEEP_RESIDENT_CAP
            || self
                .last_gauge_sweep
                .is_none_or(|t| t.elapsed() >= GAUGE_SWEEP_INTERVAL);
        if publish_gauges {
            self.last_gauge_sweep = Some(Instant::now());
        }
        let snapshot_counts = publish_gauges.then(|| {
            let wm = &self.session.wm;
            [
                wm.iter::<TransferFact>()
                    .filter(|(_, t)| t.state == TransferState::InProgress)
                    .count(),
                wm.iter::<ResourceFact>()
                    .filter(|(_, r)| r.state == ResourceState::Staged)
                    .count(),
                wm.iter::<ResourceFact>()
                    .filter(|(_, r)| r.state == ResourceState::Staging)
                    .count(),
                wm.iter::<CleanupFact>()
                    .filter(|(_, c)| c.state == CleanupState::InProgress)
                    .count(),
            ]
        });
        let pair_allocations: Vec<(String, String, u32, u32)> = if publish_gauges {
            self.session
                .wm
                .iter::<HostPairFact>()
                .map(|(_, p)| {
                    (
                        p.src_host.clone(),
                        p.dst_host.clone(),
                        p.allocated,
                        p.peak_allocated,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let Some(o) = &mut self.obs else { return };
        o.advice_latency(kind).record(micros);
        o.publish_stats(stats);
        let dropped_delta = audit_dropped.saturating_sub(o.last_audit_dropped);
        if dropped_delta > 0 {
            o.counter(
                "pwm_policy_audit_dropped_total",
                "Audit records evicted by the retention ring",
            )
            .add(dropped_delta);
            o.last_audit_dropped = audit_dropped;
        }
        if let Some(counts) = snapshot_counts {
            for (name, help, value) in [
                (
                    "pwm_policy_in_progress_transfers",
                    "Transfers handed out and not yet reported",
                    counts[0],
                ),
                (
                    "pwm_policy_staged_files",
                    "Files known to be staged at their destination",
                    counts[1],
                ),
                (
                    "pwm_policy_staging_files",
                    "Files currently being staged",
                    counts[2],
                ),
                (
                    "pwm_policy_in_progress_cleanups",
                    "Cleanups handed out and not yet reported",
                    counts[3],
                ),
            ] {
                o.gauge(name, help).set(value as f64);
            }
        }
        for (src, dst, allocated, peak) in &pair_allocations {
            let mut labels = o.label_refs();
            labels.push(("src", src.as_str()));
            labels.push(("dst", dst.as_str()));
            o.obs
                .registry
                .gauge(
                    "pwm_policy_allocated_streams",
                    "Streams currently allocated between a host pair",
                    &labels,
                )
                .set(f64::from(*allocated));
            o.obs
                .registry
                .gauge(
                    "pwm_policy_peak_allocated_streams",
                    "High-water mark of streams allocated between a host pair",
                    &labels,
                )
                .set(f64::from(*peak));
        }
        if let Some(clock) = &o.clock {
            o.obs.tracer.instant(
                kind,
                "policy",
                clock.now(),
                &[
                    ("batch", batch.to_string()),
                    ("firings", firings.to_string()),
                ],
            );
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.ctx.config
    }

    /// Replace the configuration (an administrator reconfiguring the
    /// service between workflows).
    pub fn set_config(&mut self, config: PolicyConfig) {
        if self.durability.is_some() {
            self.log_command(WalCommand::SetConfig(config.clone()));
        }
        if config.audit_retention() != self.audit.capacity() {
            // Resize the retention ring in place, keeping the newest
            // records and the lifetime sequence counter.
            let capacity = config.audit_retention();
            let records = self.audit.tail(capacity);
            self.audit = AuditLog::restore(capacity, self.audit.total_recorded(), records);
        }
        self.ctx.config = config;
        self.sync_backend_profiles();
        // Rule matchers read the config through ctx, which the engine (like
        // Drools globals) does not watch — flush the cached agenda so the
        // new config is observed.
        self.session.invalidate_agenda();
        self.audit.record(PolicyEvent::ConfigChanged);
        self.maybe_snapshot();
    }

    /// Audit records with sequence ≥ `since` (the monitoring log).
    pub fn audit_since(&self, since: u64) -> Vec<AuditRecord> {
        self.audit.since(since)
    }

    /// The most recent `n` audit records.
    pub fn audit_tail(&self, n: usize) -> Vec<AuditRecord> {
        self.audit.tail(n)
    }

    /// Monitoring counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Per-rule engine counters (installation order).
    pub fn rule_stats(&self) -> Vec<RuleCounters> {
        self.session
            .rule_stats()
            .into_iter()
            .map(RuleCounters::from)
            .collect()
    }

    /// Evaluate a list of transfer requests against the policy rules and
    /// return the modified list: duplicates are marked skipped, transfers
    /// get stream/group advice, and the list is ordered per the ordering
    /// policy.
    pub fn evaluate_transfers(&mut self, batch: Vec<TransferSpec>) -> Vec<TransferAdvice> {
        if self.durability.is_some() {
            self.log_command(WalCommand::EvaluateTransfers(batch.clone()));
        }
        self.evaluate_groups_inner(vec![batch])
            .pop()
            .unwrap_or_default()
    }

    /// Evaluate several pipelined request groups in **one** call.
    ///
    /// This is the event loop's batched advice path: a connection's
    /// pipelined requests (or several connections' requests bound for the
    /// same session) are drained into a single service call instead of N
    /// lock-and-log round trips. Each inner list is one client request and
    /// gets its own independently ordered advice list back.
    ///
    /// Pipelining requires responses identical to sending the requests one
    /// at a time, so the groups are evaluated as back-to-back rule passes —
    /// a later group sees earlier groups' transfers as already in progress,
    /// exactly as separate calls would. What the batch shares is the
    /// per-call overhead: one WAL record, one lock hold, one metrics/audit
    /// flush for the whole window.
    pub fn evaluate_transfer_groups(
        &mut self,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Vec<Vec<TransferAdvice>> {
        if self.durability.is_some() {
            self.log_command(WalCommand::EvaluateTransferGroups(groups.clone()));
        }
        self.evaluate_groups_inner(groups)
    }

    /// Shared core of the single-batch and grouped evaluation paths: each
    /// group is inserted, evaluated, and committed as its own rules pass
    /// (so pipelined groups observe exactly the sequential semantics),
    /// while the call-level bookkeeping — WAL record, latency histogram,
    /// refraction GC, snapshot check — happens once for the whole window.
    fn evaluate_groups_inner(
        &mut self,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Vec<Vec<TransferAdvice>> {
        let total: usize = groups.iter().map(Vec::len).sum();
        self.stats.transfer_requests += total as u64;

        struct Row {
            handle: pwm_rules::FactHandle,
            advice: TransferAdvice,
            priority: i32,
        }
        let by_priority = self.ctx.config.ordering == OrderingPolicy::ByPriority;
        let eval_start = Instant::now();
        let mut total_firings = 0usize;
        let mut out_groups = Vec::with_capacity(groups.len());
        for batch in groups {
            // Steady-state short circuit: a single already-staged duplicate
            // — the dominant request once a workload's files are staged —
            // has a rules outcome that is fully determined by indexed
            // probes, so it skips the insert/fire/retract cycle entirely.
            if self.fast_path && batch.len() == 1 {
                if let Some(advice) = self.try_fast_staged_duplicate(&batch[0]) {
                    out_groups.push(vec![advice]);
                    continue;
                }
            }
            let mut handles = Vec::with_capacity(batch.len());
            for spec in batch {
                let id = TransferId(self.next_transfer);
                self.next_transfer += 1;
                let h = self.session.wm.insert(TransferFact {
                    id,
                    spec,
                    state: TransferState::Pending,
                    streams: None,
                    charged_streams: 0,
                    group: None,
                    in_current_batch: true,
                    suppressed: None,
                    cluster_released: false,
                    backend: None,
                    backend_released: false,
                });
                handles.push(h);
            }

            let report = self.session.fire_all(&mut self.ctx);
            total_firings += report.firings;
            debug_assert!(!report.budget_exhausted, "policy rules did not converge");

            // Snapshot the group's facts for advice building.
            let mut rows: Vec<Row> = Vec::with_capacity(handles.len());
            for h in &handles {
                let t = self
                    .session
                    .wm
                    .get::<TransferFact>(*h)
                    .expect("batch fact vanished during evaluation");
                let action = match t.suppressed {
                    Some(reason) => TransferAction::Skip(reason),
                    None => TransferAction::Execute,
                };
                rows.push(Row {
                    handle: *h,
                    advice: TransferAdvice {
                        id: t.id,
                        source: t.spec.source.clone(),
                        dest: t.spec.dest.clone(),
                        action,
                        streams: t.streams.unwrap_or(1).max(1),
                        group: t.group.unwrap_or_default(),
                        order: 0,
                        backend: t.backend.clone(),
                    },
                    priority: t.spec.priority.unwrap_or(0),
                });
            }

            // Ordering policy: executing transfers first (sorted), skips
            // after — applied within each group independently.
            rows.sort_by(|a, b| {
                let exec_a = a.advice.should_execute();
                let exec_b = b.advice.should_execute();
                exec_b
                    .cmp(&exec_a)
                    .then_with(|| {
                        if by_priority {
                            b.priority.cmp(&a.priority)
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    })
                    .then_with(|| {
                        (&a.advice.source, &a.advice.dest).cmp(&(&b.advice.source, &b.advice.dest))
                    })
                    .then_with(|| a.advice.id.cmp(&b.advice.id))
            });

            // Commit states: executing facts leave the batch as InProgress;
            // suppressed facts are removed (their bookkeeping side effects —
            // resource refcounts — already happened).
            let mut out = Vec::with_capacity(rows.len());
            for (i, mut row) in rows.into_iter().enumerate() {
                row.advice.order = i as u32;
                let skipped = match row.advice.action {
                    TransferAction::Execute => None,
                    TransferAction::Skip(reason) => Some(reason),
                };
                self.audit.record(PolicyEvent::TransferEvaluated {
                    id: row.advice.id,
                    streams: row.advice.streams,
                    skipped,
                });
                if row.advice.should_execute() {
                    self.stats.transfers_executed += 1;
                    self.session.wm.update::<TransferFact>(row.handle, |t| {
                        t.state = TransferState::InProgress;
                        t.in_current_batch = false;
                    });
                } else {
                    self.stats.transfers_suppressed += 1;
                    self.session.wm.retract(row.handle);
                }
                out.push(row.advice);
            }
            out_groups.push(out);
        }
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += total_firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("evaluate_transfers", eval_micros, total, total_firings);
        self.maybe_snapshot();
        out_groups
    }

    /// The steady-state short circuit: answer a single-transfer request
    /// whose file is already staged **for this workflow** without a rules
    /// pass.
    ///
    /// Once a workload's files are staged, the overwhelming share of
    /// requests are duplicates that Table I's "already staged" rule
    /// suppresses while mutating nothing — the insert/fire/retract cycle
    /// exists only to discover that. When every condition below holds, the
    /// rules outcome is fully determined and byte-identical advice can be
    /// built from three indexed probes; any doubt falls through to the
    /// authoritative rules pass:
    ///
    /// - dedup is enabled (otherwise no suppression happens at all);
    /// - no resident in-progress transfer has the same (source, dest) —
    ///   the higher-salience "already in progress" rule would win and mark
    ///   `AlreadyInProgress` instead;
    /// - the destination's resource is `Staged` (a `Staging` resource
    ///   again means the in-progress rule territory, or a half-made state
    ///   the rules must arbitrate);
    /// - the requesting workflow is already a user of the resource — else
    ///   the "associate" rule would mutate the resource's user set.
    ///
    /// The replicated effects match the full pass exactly: a fresh id is
    /// minted, streams are the requested-or-default value floored to one
    /// (Table I's default + at-least-one rules fire even for suppressed
    /// transfers), no group is assigned, and the same audit record and
    /// suppression counter are written. Rule firing counters stay at zero
    /// — honestly, since no rule ran.
    fn try_fast_staged_duplicate(&mut self, spec: &TransferSpec) -> Option<TransferAdvice> {
        if !self.ctx.config.dedup {
            return None;
        }
        let wm = &self.session.wm;
        let key = transfer_pair_key(&spec.source, &spec.dest);
        let busy = wm.iter_by::<TransferFact, u64>(&key).any(|(_, u)| {
            u.state == TransferState::InProgress
                && u.spec.source == spec.source
                && u.spec.dest == spec.dest
        });
        if busy {
            return None;
        }
        let (_, r) = resource_for(wm, &spec.dest)?;
        if r.state != ResourceState::Staged || !r.users.contains(&spec.workflow) {
            return None;
        }
        let id = TransferId(self.next_transfer);
        self.next_transfer += 1;
        let streams = spec
            .requested_streams
            .unwrap_or(self.ctx.config.default_streams)
            .max(1);
        self.stats.transfers_suppressed += 1;
        self.audit.record(PolicyEvent::TransferEvaluated {
            id,
            streams,
            skipped: Some(SuppressReason::AlreadyStaged),
        });
        Some(TransferAdvice {
            id,
            source: spec.source.clone(),
            dest: spec.dest.clone(),
            action: TransferAction::Skip(SuppressReason::AlreadyStaged),
            streams,
            group: Default::default(),
            order: 0,
            backend: None,
        })
    }

    /// Report transfer outcomes. Completed transfers release their streams
    /// and mark their resource staged; failed transfers release streams and
    /// drop the half-staged resource so retries are not treated as
    /// duplicates.
    pub fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) {
        if self.durability.is_some() {
            self.log_command(WalCommand::ReportTransfers(outcomes.clone()));
        }
        let batch_len = outcomes.len();
        for outcome in outcomes {
            if let Some((h, _)) = self.session.wm.find::<TransferFact>(|t| t.id == outcome.id) {
                self.session.wm.update::<TransferFact>(h, |t| {
                    t.state = if outcome.success {
                        TransferState::Completed
                    } else {
                        TransferState::Failed
                    };
                });
                if outcome.success {
                    self.stats.transfers_completed += 1;
                } else {
                    self.stats.transfers_failed += 1;
                }
                self.audit.record(PolicyEvent::TransferReported {
                    id: outcome.id,
                    success: outcome.success,
                });
            }
        }
        let eval_start = Instant::now();
        let report = self.session.fire_all(&mut self.ctx);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("report_transfers", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
    }

    /// Evaluate a list of cleanup requests; duplicates and in-use files are
    /// marked skipped.
    pub fn evaluate_cleanups(&mut self, batch: Vec<CleanupSpec>) -> Vec<CleanupAdvice> {
        if self.durability.is_some() {
            self.log_command(WalCommand::EvaluateCleanups(batch.clone()));
        }
        self.stats.cleanup_requests += batch.len() as u64;
        let mut handles = Vec::with_capacity(batch.len());
        for spec in batch {
            let id = CleanupId(self.next_cleanup);
            self.next_cleanup += 1;
            handles.push(self.session.wm.insert(CleanupFact {
                id,
                spec,
                state: CleanupState::Pending,
                in_current_batch: true,
                suppressed: None,
            }));
        }
        let batch_len = handles.len();
        let eval_start = Instant::now();
        let report = self.session.fire_all(&mut self.ctx);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;

        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            let c = self
                .session
                .wm
                .get::<CleanupFact>(h)
                .expect("batch cleanup vanished during evaluation");
            let advice = CleanupAdvice {
                id: c.id,
                file: c.spec.file.clone(),
                action: match c.suppressed {
                    Some(reason) => CleanupAction::Skip(reason),
                    None => CleanupAction::Execute,
                },
            };
            let skipped = match advice.action {
                CleanupAction::Execute => None,
                CleanupAction::Skip(reason) => Some(reason),
            };
            self.audit.record(PolicyEvent::CleanupEvaluated {
                id: advice.id,
                skipped,
            });
            if advice.should_execute() {
                self.stats.cleanups_executed += 1;
                self.session.wm.update::<CleanupFact>(h, |c| {
                    c.state = CleanupState::InProgress;
                    c.in_current_batch = false;
                });
            } else {
                self.stats.cleanups_suppressed += 1;
                self.session.wm.retract(h);
            }
            out.push(advice);
        }
        self.session.maybe_gc_refraction();
        self.note_evaluation("evaluate_cleanups", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
        out
    }

    /// Report cleanup outcomes. Successful cleanups remove the cleanup and
    /// its resource from policy memory; failed ones are forgotten so the
    /// client may retry.
    pub fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) {
        if self.durability.is_some() {
            self.log_command(WalCommand::ReportCleanups(outcomes.clone()));
        }
        let batch_len = outcomes.len();
        for outcome in outcomes {
            if let Some((h, _)) = self.session.wm.find::<CleanupFact>(|c| c.id == outcome.id) {
                if outcome.success {
                    self.session.wm.update::<CleanupFact>(h, |c| {
                        c.state = CleanupState::Completed;
                    });
                } else {
                    self.session.wm.retract(h);
                }
                self.audit.record(PolicyEvent::CleanupReported {
                    id: outcome.id,
                    success: outcome.success,
                });
            }
        }
        let eval_start = Instant::now();
        let report = self.session.fire_all(&mut self.ctx);
        let eval_micros = eval_start.elapsed().as_micros() as u64;
        self.stats.rule_firings += report.firings as u64;
        self.session.maybe_gc_refraction();
        self.note_evaluation("report_cleanups", eval_micros, batch_len, report.firings);
        self.maybe_snapshot();
    }

    /// Record infrastructure health observations in policy memory (recovery
    /// family). Reports are upserts: `Down`/`Suspect` events insert or
    /// update the corresponding fact, `Up`/`Cleared` events retract it.
    /// Idempotent per event, so re-delivered reports are harmless; the
    /// command rides the WAL like every other mutation.
    pub fn report_health(&mut self, events: Vec<HealthEvent>) {
        if events.is_empty() {
            return;
        }
        if self.durability.is_some() {
            self.log_command(WalCommand::ReportHealth(events.clone()));
        }
        for event in events {
            let wm = &mut self.session.wm;
            match event {
                HealthEvent::HostDown { host } => {
                    if wm.find_by::<HostDownFact, String>(&host).is_none() {
                        wm.insert(HostDownFact { host });
                    }
                }
                HealthEvent::HostUp { host } => {
                    if let Some(h) = wm.find_by::<HostDownFact, String>(&host).map(|(h, _)| h) {
                        wm.retract(h);
                    }
                }
                HealthEvent::BackendDown { backend } => {
                    if wm.find_by::<BackendDownFact, String>(&backend).is_none() {
                        wm.insert(BackendDownFact { backend });
                    }
                }
                HealthEvent::BackendUp { backend } => {
                    if let Some(h) = wm
                        .find_by::<BackendDownFact, String>(&backend)
                        .map(|(h, _)| h)
                    {
                        wm.retract(h);
                    }
                }
                HealthEvent::SuspectReplica {
                    host,
                    file,
                    quarantine,
                } => {
                    let key = (host.clone(), file.clone());
                    if let Some(h) = wm
                        .find_by::<SuspectReplicaFact, (String, String)>(&key)
                        .map(|(h, _)| h)
                    {
                        wm.update::<SuspectReplicaFact>(h, |s| {
                            s.strikes += 1;
                            s.quarantined |= quarantine;
                        });
                    } else {
                        wm.insert(SuspectReplicaFact {
                            host,
                            file,
                            strikes: 1,
                            quarantined: quarantine,
                        });
                    }
                }
                HealthEvent::ReplicaCleared { host, file } => {
                    let key = (host, file);
                    if let Some(h) = wm
                        .find_by::<SuspectReplicaFact, (String, String)>(&key)
                        .map(|(h, _)| h)
                    {
                        wm.retract(h);
                    }
                }
            }
        }
        self.maybe_snapshot();
    }

    /// Streams currently allocated between a host pair.
    pub fn allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        self.session
            .wm
            .find::<HostPairFact>(|p| p.src_host == src_host && p.dst_host == dst_host)
            .map(|(_, p)| p.allocated)
            .unwrap_or(0)
    }

    /// Peak streams ever allocated between a host pair (Table IV).
    pub fn peak_allocated(&self, src_host: &str, dst_host: &str) -> u32 {
        self.session
            .wm
            .find::<HostPairFact>(|p| p.src_host == src_host && p.dst_host == dst_host)
            .map(|(_, p)| p.peak_allocated)
            .unwrap_or(0)
    }

    /// Chrome-trace JSON of this service's tracer, or `None` when no
    /// observability is attached.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.obs.tracer.chrome_trace_json())
    }

    /// JSONL dump of this service's tracer (one event object per line), or
    /// `None` when no observability is attached.
    pub fn trace_jsonl(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.obs.tracer.jsonl())
    }

    /// Snapshot of policy memory for monitoring.
    pub fn snapshot(&self) -> MemorySnapshot {
        let wm = &self.session.wm;
        MemorySnapshot {
            in_progress_transfers: wm
                .iter::<TransferFact>()
                .filter(|(_, t)| t.state == TransferState::InProgress)
                .count(),
            staged_files: wm
                .iter::<ResourceFact>()
                .filter(|(_, r)| r.state == ResourceState::Staged)
                .count(),
            staging_files: wm
                .iter::<ResourceFact>()
                .filter(|(_, r)| r.state == ResourceState::Staging)
                .count(),
            in_progress_cleanups: wm
                .iter::<CleanupFact>()
                .filter(|(_, c)| c.state == CleanupState::InProgress)
                .count(),
            host_pairs: wm
                .iter::<HostPairFact>()
                .map(|(_, p)| HostPairSnapshot {
                    src_host: p.src_host.clone(),
                    dst_host: p.dst_host.clone(),
                    allocated: p.allocated,
                    peak_allocated: p.peak_allocated,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
    use crate::model::{Url, WorkflowId};

    fn spec_n(n: u32, wf: u64) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "tacc", format!("/data/f{n:03}.dat")),
            dest: Url::new("file", "isi", format!("/scratch/f{n:03}.dat")),
            bytes: 1_000_000,
            requested_streams: None,
            workflow: WorkflowId(wf),
            cluster: None,
            priority: None,
        }
    }

    fn greedy_service(default: u32, threshold: u32) -> PolicyService {
        PolicyService::new(
            PolicyConfig::default()
                .with_default_streams(default)
                .with_threshold(threshold)
                .with_allocation(AllocationPolicy::Greedy),
        )
    }

    #[test]
    fn single_batch_gets_default_streams_and_group() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        assert_eq!(advice.len(), 2);
        for a in &advice {
            assert!(a.should_execute());
            assert_eq!(a.streams, 4);
        }
        assert_eq!(
            advice[0].group, advice[1].group,
            "same host pair, one group"
        );
        assert_eq!(svc.allocated("tacc", "isi"), 8);
    }

    #[test]
    fn advice_is_sorted_by_source_and_dest_url() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(3, 1), spec_n(1, 1), spec_n(2, 1)]);
        let paths: Vec<&str> = advice.iter().map(|a| a.source.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["/data/f001.dat", "/data/f002.dat", "/data/f003.dat"]
        );
        assert_eq!(
            advice.iter().map(|a| a.order).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn duplicate_in_batch_is_skipped() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(1, 1)]);
        let executing = advice.iter().filter(|a| a.should_execute()).count();
        assert_eq!(executing, 1);
        assert_eq!(svc.stats().transfers_suppressed, 1);
        // Only one transfer charged.
        assert_eq!(svc.allocated("tacc", "isi"), 4);
    }

    #[test]
    fn in_progress_duplicate_across_batches_is_skipped() {
        let mut svc = greedy_service(4, 50);
        let first = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        assert!(first[0].should_execute());
        let second = svc.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!second[0].should_execute());
        // But the second workflow is now registered as a user of the file.
        let snap = svc.snapshot();
        assert_eq!(snap.staging_files, 1);
    }

    #[test]
    fn staged_file_is_not_restaged() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        assert_eq!(svc.snapshot().staged_files, 1);
        let again = svc.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!again[0].should_execute());
        assert_eq!(
            again[0].action,
            TransferAction::Skip(crate::model::SuppressReason::AlreadyStaged)
        );
    }

    #[test]
    fn failed_transfer_can_be_retried() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: false,
        }]);
        assert_eq!(svc.allocated("tacc", "isi"), 0, "streams released");
        let retry = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        assert!(retry[0].should_execute(), "failure must not block retries");
    }

    #[test]
    fn completion_releases_streams() {
        let mut svc = greedy_service(8, 50);
        let advice = svc.evaluate_transfers((0..7).map(|i| spec_n(i, 1)).collect());
        assert_eq!(svc.allocated("tacc", "isi"), 50); // 6×8 + 2
        let outcomes: Vec<TransferOutcome> = advice
            .iter()
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        svc.report_transfers(outcomes);
        assert_eq!(svc.allocated("tacc", "isi"), 0);
        assert_eq!(svc.peak_allocated("tacc", "isi"), 50);
        assert_eq!(svc.snapshot().staged_files, 7);
    }

    #[test]
    fn table_iv_through_the_full_service() {
        // 20 concurrent staging jobs, one transfer each, no completions.
        for (threshold, default, expected) in [
            (50, 4, 57),
            (50, 8, 63),
            (50, 12, 65),
            (100, 8, 107),
            (200, 10, 200),
            (200, 12, 203),
        ] {
            let mut svc = greedy_service(default, threshold);
            for j in 0..20 {
                svc.evaluate_transfers(vec![spec_n(j, 1)]);
            }
            assert_eq!(
                svc.peak_allocated("tacc", "isi"),
                expected,
                "threshold {threshold}, default {default}"
            );
        }
    }

    #[test]
    fn cleanup_of_unused_file_executes() {
        let mut svc = greedy_service(4, 50);
        let advice = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: advice[0].id,
            success: true,
        }]);
        let cleanups = svc.evaluate_cleanups(vec![CleanupSpec {
            file: Url::new("file", "isi", "/scratch/f001.dat"),
            workflow: WorkflowId(1),
        }]);
        assert!(cleanups[0].should_execute());
        svc.report_cleanups(vec![CleanupOutcome {
            id: cleanups[0].id,
            success: true,
        }]);
        assert_eq!(svc.snapshot().staged_files, 0, "resource removed");
    }

    #[test]
    fn cleanup_of_shared_file_is_suppressed_until_last_user() {
        let mut svc = greedy_service(4, 50);
        // wf1 stages the file; wf2 requests the same file (skipped but
        // registered as a user).
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        svc.evaluate_transfers(vec![spec_n(1, 2)]);

        let file = Url::new("file", "isi", "/scratch/f001.dat");
        // wf1 asks to clean up: wf2 still uses it → suppressed.
        let c1 = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(!c1[0].should_execute());
        assert_eq!(svc.snapshot().staged_files, 1, "file survives");

        // wf2 asks later: no users remain → executes.
        let c2 = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(2),
        }]);
        assert!(c2[0].should_execute());
    }

    #[test]
    fn duplicate_cleanup_is_suppressed() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        let file = Url::new("file", "isi", "/scratch/f001.dat");
        let first = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(first[0].should_execute());
        // Same cleanup again while the first is still in progress.
        let second = svc.evaluate_cleanups(vec![CleanupSpec {
            file: file.clone(),
            workflow: WorkflowId(1),
        }]);
        assert!(!second[0].should_execute());
        assert_eq!(svc.stats().cleanups_suppressed, 1);
    }

    #[test]
    fn priority_ordering_sorts_descending() {
        let mut svc =
            PolicyService::new(PolicyConfig::default().with_ordering(OrderingPolicy::ByPriority));
        let mut lo = spec_n(1, 1);
        lo.priority = Some(1);
        let mut hi = spec_n(2, 1);
        hi.priority = Some(10);
        let advice = svc.evaluate_transfers(vec![lo, hi]);
        assert_eq!(advice[0].source.path, "/data/f002.dat");
        assert_eq!(advice[1].source.path, "/data/f001.dat");
    }

    #[test]
    fn snapshot_reflects_ledgers() {
        let mut svc = greedy_service(4, 50);
        svc.evaluate_transfers(vec![spec_n(1, 1)]);
        let snap = svc.snapshot();
        assert_eq!(snap.in_progress_transfers, 1);
        assert_eq!(snap.host_pairs.len(), 1);
        assert_eq!(snap.host_pairs[0].allocated, 4);
        assert_eq!(snap.host_pairs[0].src_host, "tacc");
    }

    #[test]
    fn unknown_outcome_ids_are_ignored() {
        let mut svc = greedy_service(4, 50);
        svc.report_transfers(vec![TransferOutcome {
            id: TransferId(999),
            success: true,
        }]);
        svc.report_cleanups(vec![CleanupOutcome {
            id: CleanupId(999),
            success: true,
        }]);
        // No panic, nothing counted as completed.
        assert_eq!(svc.stats().transfers_completed, 0);
    }

    #[test]
    fn duplicate_completion_report_is_harmless() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1)]);
        let outcome = TransferOutcome {
            id: a[0].id,
            success: true,
        };
        svc.report_transfers(vec![outcome]);
        svc.report_transfers(vec![outcome]);
        assert_eq!(svc.allocated("tacc", "isi"), 0);
        assert_eq!(svc.stats().transfers_completed, 1);
    }

    #[test]
    fn durable_state_roundtrip_is_identity() {
        let mut svc = greedy_service(4, 50);
        let a = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1), spec_n(1, 2)]);
        let staged = a.iter().find(|x| x.should_execute()).unwrap().id;
        svc.report_transfers(vec![TransferOutcome {
            id: staged,
            success: true,
        }]);
        svc.evaluate_cleanups(vec![CleanupSpec {
            file: Url::new("file", "isi", "/scratch/f002.dat"),
            workflow: WorkflowId(1),
        }]);

        let state = svc.durable_state();
        let mut rebuilt = PolicyService::from_durable_state(state.clone());
        assert_eq!(rebuilt.durable_state(), state);
        // And the rebuilt service behaves identically on new requests.
        assert_eq!(
            svc.evaluate_transfers(vec![spec_n(9, 1), spec_n(1, 3)]),
            rebuilt.evaluate_transfers(vec![spec_n(9, 1), spec_n(1, 3)]),
        );
        assert_eq!(svc.snapshot(), rebuilt.snapshot());
        assert_eq!(svc.stats(), rebuilt.stats());
        assert_eq!(svc.audit_tail(50), rebuilt.audit_tail(50));
    }

    #[test]
    fn durable_session_recovers_from_disk() {
        let dir = crate::durable::scratch_dir("svc-recover");
        let mut svc = greedy_service(4, 50);
        svc.enable_durability(crate::durable::DurabilityConfig::new(&dir).with_snapshot_every(2))
            .unwrap();
        let a = svc.evaluate_transfers(vec![spec_n(1, 1), spec_n(2, 1)]);
        svc.report_transfers(vec![TransferOutcome {
            id: a[0].id,
            success: true,
        }]);
        svc.evaluate_transfers(vec![spec_n(3, 1)]);

        let mut recovered = PolicyService::recover_from(&dir).unwrap();
        assert_eq!(recovered.snapshot(), svc.snapshot());
        assert_eq!(recovered.stats(), svc.stats());
        assert_eq!(recovered.durable_state(), {
            let mut s = svc.durable_state();
            s.applied_seq = 0; // the live service stamps its log position
            s
        });
        // Dedup memory survived: the staged file is not re-advised.
        let again = recovered.evaluate_transfers(vec![spec_n(1, 2)]);
        assert!(!again[0].should_execute());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_retention_config_bounds_the_ring() {
        let mut svc = PolicyService::new(PolicyConfig::default().with_audit_retention(4));
        for i in 0..10 {
            svc.evaluate_transfers(vec![spec_n(i, 1)]);
        }
        assert_eq!(svc.audit_tail(100).len(), 4);
        // Reconfiguring the retention resizes the ring in place.
        svc.set_config(PolicyConfig::default().with_audit_retention(2));
        assert!(svc.audit_tail(100).len() <= 2);
    }

    #[test]
    fn balanced_service_respects_cluster_shares() {
        let mut svc = PolicyService::new(
            PolicyConfig::default()
                .with_threshold(40)
                .with_cluster_factor(2)
                .with_default_streams(8)
                .with_allocation(AllocationPolicy::Balanced),
        );
        let mut batch = Vec::new();
        for i in 0..3 {
            let mut s = spec_n(i, 1);
            s.cluster = Some(crate::model::ClusterId(0));
            batch.push(s);
        }
        let advice = svc.evaluate_transfers(batch);
        let mut streams: Vec<u32> = advice.iter().map(|a| a.streams).collect();
        streams.sort_unstable();
        assert_eq!(streams, vec![4, 8, 8], "20-share: 8+8+4");
    }

    /// Drive the same request history through a service with the
    /// already-staged short circuit on and one with it forced off; every
    /// advice row, the audit trail, and the memory snapshot must agree —
    /// the fast path is an optimization, never a behavior change.
    #[test]
    fn fast_staged_duplicate_path_matches_full_rules_pass() {
        let mut fast = greedy_service(4, 50);
        let mut slow = greedy_service(4, 50);
        slow.fast_path = false;

        let mut histories: Vec<Vec<Vec<TransferSpec>>> = Vec::new();
        // Stage two files, complete them, then hammer duplicates: the
        // same workflow (pure fast path), another workflow (associate
        // rule must run -> slow), requested_streams edge cases, and an
        // in-progress duplicate (in-progress rule must win -> slow).
        histories.push(vec![vec![spec_n(1, 1)], vec![spec_n(2, 1)]]);
        let mut zero = spec_n(1, 1);
        zero.requested_streams = Some(0);
        let mut six = spec_n(2, 1);
        six.requested_streams = Some(6);
        histories.push(vec![
            vec![spec_n(1, 1)],
            vec![spec_n(1, 2)],
            vec![zero],
            vec![six],
            vec![spec_n(3, 1)], // still staging: not eligible
            vec![spec_n(3, 2)], // duplicate of an in-progress transfer
        ]);

        for (round, groups) in histories.into_iter().enumerate() {
            let a = fast.evaluate_transfer_groups(groups.clone());
            let b = slow.evaluate_transfer_groups(groups);
            assert_eq!(a, b, "advice must match in round {round}");
            if round == 0 {
                // Complete the staged files on both services identically.
                for adv in a.iter().flatten().filter(|a| a.should_execute()) {
                    let outcome = vec![TransferOutcome {
                        id: adv.id,
                        success: true,
                    }];
                    fast.report_transfers(outcome.clone());
                    slow.report_transfers(outcome);
                }
            }
        }
        assert_eq!(fast.snapshot(), slow.snapshot());
        assert_eq!(fast.audit_tail(100), slow.audit_tail(100));
        assert_eq!(
            fast.stats().transfers_suppressed,
            slow.stats().transfers_suppressed
        );
        assert_eq!(
            fast.stats().transfer_requests,
            slow.stats().transfer_requests
        );
    }
}
