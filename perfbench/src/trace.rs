//! Host-time spans recorded around the calls into each layer, kept in
//! memory, reduced to per-layer self time, and exported once as a Chrome
//! trace.
//!
//! One run is a tree: `run` → `generate`, `plan`, `execute` → one span per
//! policy-transport call. Every span carries its parent and the run id. A
//! span's self time is its duration minus its children's; the children of
//! one parent never overlap (one thread runs a run).

use crate::timed::{CallKind, CallRecord};
use crate::workload::Phases;
use pwm_obs::{SpanId, Tracer};
use pwm_sim::SimTime;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Run,
    Generate,
    Plan,
    Execute,
    Call(CallKind),
}

impl SpanKind {
    /// Span name in the exported trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Generate => "generate",
            SpanKind::Plan => "plan",
            SpanKind::Execute => "execute",
            SpanKind::Call(kind) => kind.name(),
        }
    }

    /// The layer the span times (one trace row each).
    fn category(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Generate => "montage",
            SpanKind::Plan => "planner",
            SpanKind::Execute => "executor",
            SpanKind::Call(_) => "policy_transport",
        }
    }
}

/// One traced run reduced to layer self times, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct RunLayers {
    /// The whole run span.
    pub run_ns: u64,
    pub generate_ns: u64,
    pub plan_ns: u64,
    /// The execute span minus the policy calls inside it.
    pub exec_self_ns: u64,
    /// Every policy-transport call: kind and duration.
    pub calls: Vec<(CallKind, u64)>,
}

impl RunLayers {
    /// Time inside policy-transport calls.
    pub fn call_ns(&self) -> u64 {
        self.calls.iter().map(|(_, ns)| ns).sum()
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Index of the parent span in [`SpanLog::spans`].
    pub parent: Option<usize>,
    pub run: u32,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// Every span of an invocation's traced runs, in creation order (a parent
/// always precedes its children).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    runs: u32,
}

impl SpanLog {
    /// An empty log whose trace timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            runs: 0,
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record one run's tree; returns how many spans it added.
    pub fn record_run(&mut self, phases: &Phases, calls: &[CallRecord]) -> usize {
        let run = self.runs;
        self.runs += 1;
        let before = self.spans.len();
        let root = self.push(SpanKind::Run, None, run, phases.start, phases.executed);
        self.push(
            SpanKind::Generate,
            Some(root),
            run,
            phases.start,
            phases.generated,
        );
        self.push(
            SpanKind::Plan,
            Some(root),
            run,
            phases.generated,
            phases.planned,
        );
        let exec = self.push(
            SpanKind::Execute,
            Some(root),
            run,
            phases.planned,
            phases.executed,
        );
        for c in calls {
            self.push(SpanKind::Call(c.kind), Some(exec), run, c.start, c.end);
        }
        self.spans.len() - before
    }

    fn push(
        &mut self,
        kind: SpanKind,
        parent: Option<usize>,
        run: u32,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            kind,
            parent,
            run,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Self time (duration minus children) of every span, in nanoseconds,
    /// indexed like [`SpanLog::spans`].
    fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.nanos() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.nanos() as i128;
            }
        }
        own.into_iter().map(|n| n.max(0) as u64).collect()
    }

    /// Every traced run reduced to its layers' self times, indexed by run id.
    pub fn layers(&self) -> Vec<RunLayers> {
        let mut out = vec![RunLayers::default(); self.runs as usize];
        for (s, own) in self.spans.iter().zip(self.self_nanos()) {
            let run = &mut out[s.run as usize];
            match s.kind {
                SpanKind::Run => run.run_ns = s.nanos(),
                SpanKind::Generate => run.generate_ns = own,
                SpanKind::Plan => run.plan_ns = own,
                SpanKind::Execute => run.exec_self_ns = own,
                SpanKind::Call(kind) => run.calls.push((kind, own)),
            }
        }
        out
    }

    /// Chrome-trace JSON of the first `max_runs` traced runs (Perfetto
    /// loads it; `pwm_obs::validate_chrome_trace` checks it). Times are host
    /// microseconds since the epoch, rounded outward so a child still lies
    /// within its parent.
    pub fn chrome_trace(&self, max_runs: u32) -> String {
        let tracer = Tracer::new();
        let micros_floor = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64 / 1000;
        let micros_ceil =
            |t: Instant| t.duration_since(self.epoch).as_nanos().div_ceil(1000) as u64;
        // Replaying in creation order makes the tracer's sequential ids equal
        // to the indices into `spans`, so parent links carry over unchanged.
        for s in self.spans.iter().take_while(|s| s.run < max_runs) {
            let mut args = vec![("run", s.run.to_string())];
            if let SpanKind::Call(kind) = s.kind {
                args.push(("kind", kind.name().to_string()));
            }
            tracer.complete_span(
                s.kind.name(),
                s.kind.category(),
                s.parent.map(|p| SpanId(p as u64)),
                SimTime::from_micros(micros_floor(s.start)),
                SimTime::from_micros(micros_ceil(s.end)),
                &args,
            );
        }
        tracer.chrome_trace_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_the_trace_validates() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let phases = Phases {
            start: at(0),
            generated: at(10),
            planned: at(15),
            executed: at(100),
        };
        let calls = [
            CallRecord {
                kind: CallKind::EvaluateTransfers,
                start: at(20),
                end: at(50),
                ok: true,
            },
            CallRecord {
                kind: CallKind::ReportTransfers,
                start: at(60),
                end: at(70),
                ok: true,
            },
        ];
        let mut log = SpanLog::new(t0);
        assert_eq!(log.record_run(&phases, &calls), 6);
        assert_eq!(log.record_run(&phases, &calls[..1]), 5);
        let layers = log.layers();
        assert_eq!(layers.len(), 2);
        let us = |ns: u64| ns / 1000;
        assert_eq!(us(layers[0].run_ns), 100);
        assert_eq!(us(layers[0].generate_ns), 10);
        assert_eq!(us(layers[0].plan_ns), 5);
        assert_eq!(us(layers[0].exec_self_ns), 45);
        assert_eq!(us(layers[1].exec_self_ns), 55);
        assert_eq!(us(layers[0].call_ns()), 40);
        assert_eq!(layers[1].calls.len(), 1);

        let json = log.chrome_trace(1);
        assert_eq!(pwm_obs::validate_chrome_trace(&json), Ok(6));
        assert!(json.contains("\"kind\":\"report_transfers\""));
    }
}
