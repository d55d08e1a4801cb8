//! The timing decorator around a [`PolicyTransport`].
//!
//! Every call the executor makes into the policy layer passes through
//! [`Timed`], which forwards it unchanged and appends one [`CallRecord`]
//! (kind, host start/end, success) to a shared log. The benchmark reads the
//! log after the run: untraced runs turn it into latency samples, traced runs
//! into child spans of the execute span.

use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, PolicyTransport, TransferAdvice,
    TransferOutcome, TransferSpec, TransportError,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five `PolicyTransport` methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CallKind {
    EvaluateTransfers,
    ReportTransfers,
    EvaluateCleanups,
    ReportCleanups,
    ReportHealth,
}

impl CallKind {
    /// Every kind, in metric-name order.
    pub const ALL: [CallKind; 5] = [
        CallKind::EvaluateTransfers,
        CallKind::ReportTransfers,
        CallKind::EvaluateCleanups,
        CallKind::ReportCleanups,
        CallKind::ReportHealth,
    ];

    /// The method name, as used in metric names and span names.
    pub fn name(self) -> &'static str {
        match self {
            CallKind::EvaluateTransfers => "evaluate_transfers",
            CallKind::ReportTransfers => "report_transfers",
            CallKind::EvaluateCleanups => "evaluate_cleanups",
            CallKind::ReportCleanups => "report_cleanups",
            CallKind::ReportHealth => "report_health",
        }
    }

    /// Position in [`CallKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One forwarded call.
#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    pub kind: CallKind,
    pub start: Instant,
    pub end: Instant,
    /// False when the wrapped transport returned `Err`.
    pub ok: bool,
}

impl CallRecord {
    /// Host latency in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// A log shared between a [`Timed`] transport (which the executor owns and
/// drops) and the benchmark (which reads it after the run).
pub type CallLog = Arc<Mutex<Vec<CallRecord>>>;

/// A transport that may outlive one run: the REST workload keeps a single
/// keep-alive client across all runs of an invocation.
pub type SharedTransport = Arc<Mutex<dyn PolicyTransport>>;

/// Forwards every call to `inner` and logs its kind, host time and outcome.
pub struct Timed {
    inner: SharedTransport,
    log: CallLog,
}

impl Timed {
    /// Wrap `inner`, appending records to `log`.
    pub fn new(inner: SharedTransport, log: CallLog) -> Timed {
        Timed { inner, log }
    }

    fn call<R>(
        &mut self,
        kind: CallKind,
        op: impl FnOnce(&mut dyn PolicyTransport) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        let mut inner = self.inner.lock().expect("policy transport lock poisoned");
        let start = Instant::now();
        let result = op(&mut *inner);
        let end = Instant::now();
        drop(inner);
        self.log
            .lock()
            .expect("call log lock poisoned")
            .push(CallRecord {
                kind,
                start,
                end,
                ok: result.is_ok(),
            });
        result
    }
}

impl PolicyTransport for Timed {
    fn evaluate_transfers(
        &mut self,
        batch: Vec<TransferSpec>,
    ) -> Result<Vec<TransferAdvice>, TransportError> {
        self.call(CallKind::EvaluateTransfers, |t| t.evaluate_transfers(batch))
    }

    fn report_transfers(&mut self, outcomes: Vec<TransferOutcome>) -> Result<(), TransportError> {
        self.call(CallKind::ReportTransfers, |t| t.report_transfers(outcomes))
    }

    fn evaluate_cleanups(
        &mut self,
        batch: Vec<CleanupSpec>,
    ) -> Result<Vec<CleanupAdvice>, TransportError> {
        self.call(CallKind::EvaluateCleanups, |t| t.evaluate_cleanups(batch))
    }

    fn report_cleanups(&mut self, outcomes: Vec<CleanupOutcome>) -> Result<(), TransportError> {
        self.call(CallKind::ReportCleanups, |t| t.report_cleanups(outcomes))
    }

    fn report_health(&mut self, events: Vec<HealthEvent>) -> Result<(), TransportError> {
        self.call(CallKind::ReportHealth, |t| t.report_health(events))
    }
}
