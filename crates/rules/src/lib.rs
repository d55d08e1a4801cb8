//! # pwm-rules — a forward-chaining production rule engine
//!
//! The paper implements its Policy Service on the Drools rule engine; this
//! crate is the from-scratch Rust substitute. It provides the Drools
//! operational semantics the policy rules depend on:
//!
//! * a typed [`WorkingMemory`] of facts with insert / update / retract and
//!   per-fact version counters,
//! * [`Rule`]s with `when` matchers and `then` actions, carrying *salience*
//!   priorities, generic over a shared globals type `Ctx`,
//! * a [`Session`] that fires rules to quiescence with Drools-style
//!   *refraction* (a rule fires once per fact tuple until one of the facts
//!   is updated), salience-descending conflict resolution, and a firing
//!   budget guarding against divergent rule sets.
//!
//! Matching is *incremental*: each rule declares which fact types its
//! matcher reads ([`rule::Watch`]; `when_each` infers it, join rules use
//! [`RuleBuilder::watches`]), working memory tracks a per-type dirty
//! generation, and the session caches each rule's matches between firings —
//! re-evaluating a matcher only when a watched type actually changed. See
//! the [`engine`] module docs for the agenda design and its invariants.
//!
//! ```
//! use pwm_rules::{Rule, Session};
//!
//! #[derive(Debug)]
//! struct Transfer { streams: Option<u32> }
//!
//! struct Config { default_streams: u32 }
//!
//! let mut session: Session<Config> = Session::new();
//! session.wm.insert(Transfer { streams: None });
//! session.add_rule(
//!     Rule::new("assign default level of parallel streams")
//!         .when_each::<Transfer>(|t, _: &Config| t.streams.is_none())
//!         .then(|wm, cfg, m| {
//!             wm.update::<Transfer>(m[0], |t| t.streams = Some(cfg.default_streams));
//!         }),
//! );
//! let mut cfg = Config { default_streams: 4 };
//! let report = session.fire_all(&mut cfg);
//! assert_eq!(report.firings, 1);
//! ```

#![warn(missing_docs)]

pub mod engine;
mod fx;
#[cfg(feature = "legacy-facts")]
pub mod legacy;
pub mod memory;
#[cfg(test)]
mod naive;
pub mod query;
pub mod rule;

pub use engine::{FiringReport, RuleStats, Session};
pub use fx::FxHasher;
#[cfg(feature = "legacy-facts")]
pub use legacy::LegacyWorkingMemory;
pub use memory::{Fact, FactHandle, FactId, WorkingMemory};
pub use query::{count_where, exists, group_by, max_by, select, sum_by};
pub use rule::{Match, Rule, RuleBuilder, Watch};
