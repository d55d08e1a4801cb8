//! Output checks. A failed check makes the invocation report
//! `"correct": false` and exit nonzero.

use crate::timed::{CallKind, CallRecord};
use crate::workload::{RunOutput, Workload, TABLE_IV_PEAK_STREAMS};
use pwm_net::AllocStats;
use pwm_workflow::RunStats;

/// Failure messages kept verbatim; further failures are only counted.
const MAX_MESSAGES: usize = 20;

/// Everything about a run that must repeat exactly for its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub stats: RunStats,
    pub alloc: AllocStats,
    pub flows_completed: u64,
    /// Calls per [`CallKind`].
    pub calls: [u64; 5],
    /// Rules (evaluations, firings) of the run, when it was traced.
    pub rules: Option<(f64, f64)>,
}

impl Fingerprint {
    /// The fingerprint of one run; `rules` comes from the traced pass.
    pub fn of(out: &RunOutput, rules: Option<(f64, f64)>) -> Fingerprint {
        let mut calls = [0u64; 5];
        for c in &out.calls {
            calls[c.kind.index()] += 1;
        }
        Fingerprint {
            stats: out.stats.clone(),
            alloc: out.alloc,
            flows_completed: out.flows_completed,
            calls,
            rules,
        }
    }

    /// Calls of `kind`.
    pub fn calls_of(&self, kind: CallKind) -> u64 {
        self.calls[kind.index()]
    }
}

/// Runs and policy calls attempted, and how many failed: a run fails when
/// it does not succeed, a call when the transport returns `Err`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub runs: u64,
    pub failed_runs: u64,
    pub calls: u64,
    pub failed_calls: u64,
}

impl Tally {
    /// Count one run and its policy calls.
    pub fn add(&mut self, success: bool, calls: &[CallRecord]) {
        self.runs += 1;
        self.failed_runs += u64::from(!success);
        self.calls += calls.len() as u64;
        self.failed_calls += calls.iter().filter(|c| !c.ok).count() as u64;
    }

    /// Runs plus calls.
    pub fn attempted(&self) -> u64 {
        self.runs + self.calls
    }

    /// Failed runs plus failed calls.
    pub fn failed(&self) -> u64 {
        self.failed_runs + self.failed_calls
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted() as f64
        }
    }
}

/// Checks every run of one invocation. Seeds cycle through a fixed set; the
/// first run of each seed is the reference later runs must equal.
pub struct Checker {
    workload: Workload,
    first: Vec<Option<Fingerprint>>,
    messages: Vec<String>,
    failures: usize,
}

impl Checker {
    /// A checker for `seeds` distinct seed slots.
    pub fn new(workload: Workload, seeds: usize) -> Checker {
        Checker {
            workload,
            first: vec![None; seeds],
            messages: Vec::new(),
            failures: 0,
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Check one run of the seed in `slot`.
    pub fn observe(&mut self, slot: usize, seed: u64, out: &RunOutput, rules: Option<(f64, f64)>) {
        let stats = &out.stats;
        if !stats.success {
            self.fail(format!("seed {seed}: run did not succeed"));
        }
        if stats.bytes_staged != out.planned_bytes {
            self.fail(format!(
                "seed {seed}: staged {} bytes, plan stages {}",
                stats.bytes_staged, out.planned_bytes
            ));
        }
        if matches!(
            self.workload,
            Workload::MontageGreedy | Workload::MontageRest
        ) {
            match stats.peak_wan_streams {
                Some(peak) if peak <= TABLE_IV_PEAK_STREAMS => {}
                peak => self.fail(format!(
                    "seed {seed}: WAN peak streams {peak:?} above Table IV's {TABLE_IV_PEAK_STREAMS}"
                )),
            }
        }
        let fp = Fingerprint::of(out, rules);
        match &mut self.first[slot] {
            None => self.first[slot] = Some(fp),
            Some(reference) => {
                // Only traced runs carry rules counts; adopt the first seen.
                if reference.rules.is_none() {
                    reference.rules = fp.rules;
                }
                let comparable = Fingerprint {
                    rules: fp.rules.or(reference.rules),
                    ..fp
                };
                if comparable != *reference {
                    self.fail(format!(
                        "seed {seed}: run differs from the seed's first run"
                    ));
                }
            }
        }
    }

    /// The reference fingerprint of every seed slot seen so far.
    pub fn first_pass(&self) -> impl Iterator<Item = &Fingerprint> {
        self.first.iter().flatten()
    }

    /// Failed checks so far.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// The first failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}
