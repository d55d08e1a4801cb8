//! The Policy Controller.
//!
//! Fig. 1: "A Policy Controller manages communication between the web
//! interface and the policy engine." [`PolicyController`] owns one or more
//! named policy sessions, each a single [`PolicyService`] behind its own
//! lock, and routes each request to the right session. The `pwm-rest` event
//! loop, in-process transports, and test threads share one controller
//! through cheap clones.

use crate::advice::{CleanupAdvice, CleanupOutcome, TransferAdvice, TransferOutcome};
use crate::config::PolicyConfig;
use crate::durable::DurabilityConfig;
use crate::model::{CleanupSpec, TransferSpec};
use crate::service::{MemorySnapshot, PolicyService, RuleCounters, ServiceStats};
use parking_lot::{Mutex, RwLock};
use pwm_obs::Obs;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The default session name used when a client does not specify one.
pub const DEFAULT_SESSION: &str = "default";

/// Errors surfaced to the web interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// The named session does not exist.
    NoSuchSession(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::NoSuchSession(name) => write!(f, "no such policy session: {name}"),
        }
    }
}
impl std::error::Error for ControllerError {}

/// One live session behind the controller: a policy engine behind its own
/// lock. Cloning clones the `Arc`, so the session map's lock is never held
/// while a request runs — sessions contend only on their own locks.
type Session = Arc<Mutex<PolicyService>>;

/// Thread-safe front door to one or more policy sessions.
///
/// Lock domains are per session: the controller-level map lock is a
/// read-mostly `RwLock` held only long enough to clone a session handle,
/// so traffic on one session never blocks another.
#[derive(Clone)]
pub struct PolicyController {
    inner: Arc<RwLock<BTreeMap<String, Session>>>,
    /// Shared metrics registry for all sessions. Each session gets its own
    /// tracer (via [`Obs::with_fresh_tracer`]) so trace dumps are
    /// per-session while `/metrics` exposition is controller-wide.
    obs: Obs,
}

impl PolicyController {
    /// A controller with a single `default` session using `config`.
    pub fn new(config: PolicyConfig) -> Self {
        let controller = PolicyController {
            inner: Arc::new(RwLock::new(BTreeMap::new())),
            obs: Obs::new(),
        };
        controller.create_session(DEFAULT_SESSION, config);
        controller
    }

    fn insert(&self, name: String, service: PolicyService) {
        self.inner
            .write()
            .insert(name, Arc::new(Mutex::new(service)));
    }

    /// Create (or replace) a named session. The session shares the
    /// controller's metrics registry (labeled `session=<name>`) and gets a
    /// fresh tracer.
    pub fn create_session(&self, name: impl Into<String>, config: PolicyConfig) {
        let name = name.into();
        let mut service = PolicyService::new(config);
        service.set_obs(self.obs.with_fresh_tracer(), &name);
        self.insert(name, service);
    }

    /// Create (or replace) a durable session: like
    /// [`PolicyController::create_session`], but every state-mutating
    /// request is write-ahead logged and snapshotted under `dcfg.dir` for
    /// crash recovery.
    pub fn create_durable_session(
        &self,
        name: impl Into<String>,
        config: PolicyConfig,
        dcfg: DurabilityConfig,
    ) -> io::Result<()> {
        let name = name.into();
        let mut service = PolicyService::new(config);
        service.enable_durability(dcfg)?;
        service.set_obs(self.obs.with_fresh_tracer(), &name);
        self.insert(name, service);
        Ok(())
    }

    /// Recover a session from a durability directory (snapshot + log
    /// replay) without resuming logging — the warm-failover path, where a
    /// successor replica replays the failed primary's log. Use
    /// [`PolicyController::resume_durable_session`] when the recovered
    /// session should keep persisting itself.
    pub fn recover_session(&self, name: impl Into<String>, dir: &Path) -> io::Result<()> {
        let name = name.into();
        let mut service = PolicyService::recover_from(dir)?;
        service.set_obs(self.obs.with_fresh_tracer(), &name);
        self.insert(name, service);
        Ok(())
    }

    /// Recover a session from `dcfg.dir` and resume durable operation.
    /// Re-enabling compacts naturally: the resumed log starts from a fresh
    /// snapshot of the recovered state.
    pub fn resume_durable_session(
        &self,
        name: impl Into<String>,
        dcfg: DurabilityConfig,
    ) -> io::Result<()> {
        let name = name.into();
        let mut service = PolicyService::recover_from(&dcfg.dir)?;
        service.enable_durability(dcfg)?;
        service.set_obs(self.obs.with_fresh_tracer(), &name);
        self.insert(name, service);
        Ok(())
    }

    /// The controller-wide observability handle (registry shared by all
    /// sessions; its tracer is unused — sessions trace separately).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Render the shared metrics registry in Prometheus text format.
    pub fn render_metrics(&self) -> String {
        self.obs.registry.render_prometheus()
    }

    /// Chrome-trace JSON for one session's tracer.
    pub fn trace_chrome_json(&self, session: &str) -> Result<String, ControllerError> {
        let fallback = || pwm_obs::Tracer::default().chrome_trace_json();
        Ok(self
            .entry(session)?
            .lock()
            .trace_chrome_json()
            .unwrap_or_else(fallback))
    }

    /// Redirect a session's observability onto an external handle — shared
    /// registry *and* tracer. Traced bench runs use this to merge policy
    /// spans into the same export as the executor's and network's spans.
    pub fn attach_obs(&self, session: &str, obs: Obs) -> Result<(), ControllerError> {
        self.entry(session)?.lock().set_obs(obs, session);
        Ok(())
    }

    /// Attach a shared sim clock to a session so its evaluations emit
    /// sim-time trace instants (see [`PolicyService::set_sim_clock`]).
    pub fn set_sim_clock(
        &self,
        session: &str,
        clock: crate::chaos::SharedSimClock,
    ) -> Result<(), ControllerError> {
        self.entry(session)?.lock().set_sim_clock(clock);
        Ok(())
    }

    /// Delete a named session; returns whether it existed.
    pub fn drop_session(&self, name: &str) -> bool {
        self.inner.write().remove(name).is_some()
    }

    /// Names of all live sessions.
    pub fn session_names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Clone a session handle out of the map. The map's read lock is
    /// released before the caller touches the session, so requests only
    /// contend on their own session's lock.
    fn entry(&self, name: &str) -> Result<Session, ControllerError> {
        self.inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ControllerError::NoSuchSession(name.to_string()))
    }

    /// Delegate a transfer-request list to a session.
    pub fn evaluate_transfers(
        &self,
        session: &str,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, ControllerError> {
        Ok(self.entry(session)?.lock().evaluate_transfers(batch))
    }

    /// Delegate several pipelined request groups to a session under one
    /// lock hold (see [`PolicyService::evaluate_transfer_groups`]). The
    /// result aligns 1:1 with `groups`.
    pub fn evaluate_transfer_groups(
        &self,
        session: &str,
        groups: Vec<Vec<TransferSpec>>,
    ) -> Result<Vec<Vec<TransferAdvice>>, ControllerError> {
        Ok(self.entry(session)?.lock().evaluate_transfer_groups(groups))
    }

    /// Delegate transfer outcomes to a session.
    pub fn report_transfers(
        &self,
        session: &str,
        outcomes: Vec<TransferOutcome>,
    ) -> Result<(), ControllerError> {
        self.entry(session)?.lock().report_transfers(outcomes);
        Ok(())
    }

    /// Delegate a cleanup-request list to a session.
    pub fn evaluate_cleanups(
        &self,
        session: &str,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, ControllerError> {
        Ok(self.entry(session)?.lock().evaluate_cleanups(batch))
    }

    /// Delegate cleanup outcomes to a session.
    pub fn report_cleanups(
        &self,
        session: &str,
        outcomes: Vec<CleanupOutcome>,
    ) -> Result<(), ControllerError> {
        self.entry(session)?.lock().report_cleanups(outcomes);
        Ok(())
    }

    /// Delegate infrastructure health observations to a session.
    pub fn report_health(
        &self,
        session: &str,
        events: Vec<crate::model::HealthEvent>,
    ) -> Result<(), ControllerError> {
        self.entry(session)?.lock().report_health(events);
        Ok(())
    }

    /// Snapshot a session's policy memory.
    pub fn snapshot(&self, session: &str) -> Result<MemorySnapshot, ControllerError> {
        Ok(self.entry(session)?.lock().snapshot())
    }

    /// A session's monitoring counters.
    pub fn stats(&self, session: &str) -> Result<ServiceStats, ControllerError> {
        Ok(self.entry(session)?.lock().stats())
    }

    /// A session's per-rule engine counters.
    pub fn rule_stats(&self, session: &str) -> Result<Vec<RuleCounters>, ControllerError> {
        Ok(self.entry(session)?.lock().rule_stats())
    }

    /// A session's audit records with sequence ≥ `since`.
    pub fn audit_since(
        &self,
        session: &str,
        since: u64,
    ) -> Result<Vec<crate::audit::AuditRecord>, ControllerError> {
        Ok(self.entry(session)?.lock().audit_since(since))
    }

    /// Reconfigure a session in place.
    pub fn set_config(&self, session: &str, config: PolicyConfig) -> Result<(), ControllerError> {
        self.entry(session)?.lock().set_config(config);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Url, WorkflowId};

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "s", format!("/f{n}")),
            dest: Url::new("file", "d", format!("/f{n}")),
            bytes: 1,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    #[test]
    fn default_session_exists() {
        let c = PolicyController::new(PolicyConfig::default());
        assert_eq!(c.session_names(), vec![DEFAULT_SESSION.to_string()]);
        let advice = c
            .evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        assert_eq!(advice.len(), 1);
    }

    #[test]
    fn unknown_session_errors() {
        let c = PolicyController::new(PolicyConfig::default());
        let err = c.evaluate_transfers("nope", vec![spec(1)]).unwrap_err();
        assert_eq!(err, ControllerError::NoSuchSession("nope".into()));
    }

    #[test]
    fn sessions_are_isolated() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("other", PolicyConfig::default());
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        // The duplicate is only a duplicate within the same session.
        let advice = c.evaluate_transfers("other", vec![spec(1)]).unwrap();
        assert!(advice[0].should_execute());
        assert_eq!(c.stats("other").unwrap().transfers_suppressed, 0);
    }

    #[test]
    fn drop_session_removes_it() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("temp", PolicyConfig::default());
        assert!(c.drop_session("temp"));
        assert!(!c.drop_session("temp"));
        assert!(c.snapshot("temp").is_err());
    }

    #[test]
    fn controller_is_cloneable_and_shares_state() {
        let c = PolicyController::new(PolicyConfig::default());
        let c2 = c.clone();
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        assert_eq!(c2.stats(DEFAULT_SESSION).unwrap().transfer_requests, 1);
    }

    #[test]
    fn metrics_exposition_covers_all_sessions() {
        let c = PolicyController::new(PolicyConfig::default());
        c.create_session("other", PolicyConfig::default());
        c.evaluate_transfers(DEFAULT_SESSION, vec![spec(1)])
            .unwrap();
        c.evaluate_transfers("other", vec![spec(2)]).unwrap();
        let text = c.render_metrics();
        assert!(
            text.contains("pwm_policy_transfer_requests_total{session=\"default\"} 1"),
            "default session counters missing:\n{text}"
        );
        assert!(
            text.contains("pwm_policy_transfer_requests_total{session=\"other\"} 1"),
            "named session counters missing:\n{text}"
        );
        assert!(text.contains("# TYPE pwm_policy_advice_latency_micros histogram"));
    }

    #[test]
    fn session_trace_is_valid_chrome_json_even_when_empty() {
        let c = PolicyController::new(PolicyConfig::default());
        let trace = c.trace_chrome_json(DEFAULT_SESSION).unwrap();
        assert!(
            pwm_obs::JsonValue::parse(&trace).is_ok(),
            "not JSON: {trace}"
        );
        assert!(c.trace_chrome_json("nope").is_err());
    }

    #[test]
    fn durable_session_survives_controller_restart() {
        let dir = crate::durable::scratch_dir("ctl-restart");
        let c = PolicyController::new(PolicyConfig::default());
        c.create_durable_session(
            "durable",
            PolicyConfig::default(),
            DurabilityConfig::new(&dir),
        )
        .unwrap();
        let advice = c.evaluate_transfers("durable", vec![spec(1)]).unwrap();
        c.report_transfers(
            "durable",
            vec![TransferOutcome {
                id: advice[0].id,
                success: true,
            }],
        )
        .unwrap();
        let before = c.snapshot("durable").unwrap();

        // A brand-new controller (the restarted process) recovers it.
        let c2 = PolicyController::new(PolicyConfig::default());
        c2.resume_durable_session("durable", DurabilityConfig::new(&dir))
            .unwrap();
        assert_eq!(c2.snapshot("durable").unwrap(), before);
        // Dedup memory survived the restart.
        let again = c2.evaluate_transfers("durable", vec![spec(1)]).unwrap();
        assert!(!again[0].should_execute());
        // And the resumed session keeps logging: a third controller can
        // recover the post-restart state too.
        let c3 = PolicyController::new(PolicyConfig::default());
        c3.recover_session("durable", &dir).unwrap();
        assert_eq!(c3.stats("durable").unwrap(), c2.stats("durable").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_session_from_empty_dir_errors() {
        let dir = crate::durable::scratch_dir("ctl-empty");
        let c = PolicyController::new(PolicyConfig::default());
        assert!(c.recover_session("x", &dir).is_err());
        assert!(!c.session_names().contains(&"x".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = PolicyController::new(PolicyConfig::default());
        let mut handles = Vec::new();
        for thread in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let n = thread * 100 + i;
                    c.evaluate_transfers(DEFAULT_SESSION, vec![spec(n)])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats(DEFAULT_SESSION).unwrap().transfer_requests, 160);
    }
}
