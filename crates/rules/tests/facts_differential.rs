//! Differential harness: the arena [`WorkingMemory`] driven in lockstep
//! with the legacy boxed-fact store it replaced.
//!
//! Random insert/update/retract/probe command sequences execute against both
//! stores; after every command each observable the rule engine consumes must
//! agree exactly — returned handles, operation results, fact values,
//! iteration order, versions, the global generation, per-type generations,
//! and the `changed_since` delta log. A generic mini rule evaluator then
//! replays identical workloads over both stores and must produce identical
//! firing-report counters (evaluations / matches / firings), since those
//! counters are pure functions of exactly the observables compared above.
//! Finally, use-after-retract probes through saved [`pwm_rules::FactId`]s
//! must return `None` via the generation mismatch, never a stale or
//! recycled fact.
//!
//! Runs only with the `legacy-facts` feature (default-on), which keeps the
//! oracle compiled. `PWM_PROPTEST_CASES` raises the case count for the CI
//! differential job.
#![cfg(feature = "legacy-facts")]

use proptest::prelude::*;
use pwm_rules::{FactHandle, FactId, LegacyWorkingMemory, WorkingMemory};
use std::any::TypeId;

#[derive(Debug, PartialEq, Clone)]
struct Alpha {
    n: u64,
    key: u64,
}

#[derive(Debug, PartialEq, Clone)]
struct Beta {
    s: String,
}

/// One lockstep command. Handle-bearing variants pick from the issued
/// handle list by index, so they hit live, retracted, and wrong-type
/// handles alike.
#[derive(Debug, Clone)]
enum Cmd {
    InsertA(u64, u64),
    InsertB(u64),
    UpdateA(usize, u64),
    /// `update::<Beta>` aimed at whatever handle `ix` names — usually an
    /// Alpha, so the typed-miss path is exercised.
    UpdateWrongType(usize),
    Retract(usize),
    RetractAllB,
    Probe(usize),
    LookupByKey(u64),
    /// Record the current generation; subsequent `changed_since` checks
    /// compare both logs from this point.
    Checkpoint,
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0u64..50, 0u64..8).prop_map(|(n, k)| Cmd::InsertA(n, k)),
        2 => (0u64..50).prop_map(Cmd::InsertB),
        3 => (any::<usize>(), 0u64..8).prop_map(|(ix, k)| Cmd::UpdateA(ix, k)),
        1 => any::<usize>().prop_map(Cmd::UpdateWrongType),
        2 => any::<usize>().prop_map(Cmd::Retract),
        1 => Just(Cmd::RetractAllB),
        2 => any::<usize>().prop_map(Cmd::Probe),
        1 => (0u64..8).prop_map(Cmd::LookupByKey),
        1 => Just(Cmd::Checkpoint),
    ]
}

/// Compare every engine-visible observable of the two stores.
fn assert_stores_agree(arena: &WorkingMemory, legacy: &LegacyWorkingMemory, checkpoint: u64) {
    assert_eq!(arena.len(), legacy.len());
    assert_eq!(arena.is_empty(), legacy.is_empty());
    assert_eq!(arena.count::<Alpha>(), legacy.count::<Alpha>());
    assert_eq!(arena.count::<Beta>(), legacy.count::<Beta>());
    assert_eq!(arena.generation(), legacy.generation());
    assert_eq!(
        arena.type_generation_of::<Alpha>(),
        legacy.type_generation_of::<Alpha>()
    );
    assert_eq!(
        arena.type_generation_of::<Beta>(),
        legacy.type_generation_of::<Beta>()
    );
    let a_iter: Vec<(FactHandle, Alpha)> =
        arena.iter::<Alpha>().map(|(h, a)| (h, a.clone())).collect();
    let l_iter: Vec<(FactHandle, Alpha)> = legacy
        .iter::<Alpha>()
        .map(|(h, a)| (h, a.clone()))
        .collect();
    assert_eq!(a_iter, l_iter, "Alpha iteration diverged");
    let a_beta: Vec<(FactHandle, Beta)> =
        arena.iter::<Beta>().map(|(h, b)| (h, b.clone())).collect();
    let l_beta: Vec<(FactHandle, Beta)> =
        legacy.iter::<Beta>().map(|(h, b)| (h, b.clone())).collect();
    assert_eq!(a_beta, l_beta, "Beta iteration diverged");
    for ty in [TypeId::of::<Alpha>(), TypeId::of::<Beta>()] {
        assert_eq!(
            arena.changed_since(ty, checkpoint),
            legacy.changed_since(ty, checkpoint),
            "changed_since diverged"
        );
    }
    for key in 0..8u64 {
        assert_eq!(
            arena.lookup_by::<Alpha, u64>(&key),
            legacy.lookup_by::<Alpha, u64>(&key),
            "lookup_by({key}) diverged"
        );
        let a_by: Vec<(FactHandle, Alpha)> = arena
            .iter_by::<Alpha, u64>(&key)
            .map(|(h, a)| (h, a.clone()))
            .collect();
        let l_by: Vec<(FactHandle, Alpha)> = legacy
            .iter_by::<Alpha, u64>(&key)
            .map(|(h, a)| (h, a.clone()))
            .collect();
        assert_eq!(a_by, l_by, "iter_by({key}) diverged");
        assert_eq!(
            arena
                .find_by::<Alpha, u64>(&key)
                .map(|(h, a)| (h, a.clone())),
            legacy
                .find_by::<Alpha, u64>(&key)
                .map(|(h, a)| (h, a.clone())),
            "find_by({key}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: option_env!("PWM_PROPTEST_CASES")
            .and_then(|s| s.parse().ok())
            .unwrap_or(128),
    })]

    /// The heart of the harness: identical command sequences, identical
    /// observables, after every single command.
    #[test]
    fn arena_store_matches_legacy_store(cmds in proptest::collection::vec(arb_cmd(), 1..120)) {
        let mut arena = WorkingMemory::new();
        let mut legacy = LegacyWorkingMemory::new();
        arena.register_index::<Alpha, u64>(|a| a.key);
        legacy.register_index::<Alpha, u64>(|a| a.key);
        let mut handles: Vec<FactHandle> = Vec::new();
        // Ids of every Alpha ever inserted, with the handle they named;
        // retired ones must probe to None at the end.
        let mut ids: Vec<(FactHandle, FactId<Alpha>)> = Vec::new();
        let mut checkpoint = 0u64;
        for cmd in cmds {
            match cmd {
                Cmd::InsertA(n, key) => {
                    let ha = arena.insert(Alpha { n, key });
                    let hl = legacy.insert(Alpha { n, key });
                    prop_assert_eq!(ha, hl, "handle numbering diverged");
                    ids.push((ha, arena.fact_id::<Alpha>(ha).unwrap()));
                    handles.push(ha);
                }
                Cmd::InsertB(n) => {
                    let ha = arena.insert(Beta { s: format!("b{n}") });
                    let hl = legacy.insert(Beta { s: format!("b{n}") });
                    prop_assert_eq!(ha, hl, "handle numbering diverged");
                    handles.push(ha);
                }
                Cmd::UpdateA(ix, key) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    let ra = arena.update::<Alpha>(h, |a| { a.n += 1; a.key = key; });
                    let rl = legacy.update::<Alpha>(h, |a| { a.n += 1; a.key = key; });
                    prop_assert_eq!(ra, rl, "update result diverged");
                }
                Cmd::UpdateWrongType(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    // Against an Alpha handle this must fail on both sides
                    // without bumping any version or generation.
                    let ra = arena.update::<Beta>(h, |b| b.s.push('!'));
                    let rl = legacy.update::<Beta>(h, |b| b.s.push('!'));
                    prop_assert_eq!(ra, rl, "wrong-type update diverged");
                }
                Cmd::Retract(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    prop_assert_eq!(arena.retract(h), legacy.retract(h), "retract diverged");
                }
                Cmd::RetractAllB => {
                    prop_assert_eq!(
                        arena.retract_all::<Beta>(),
                        legacy.retract_all::<Beta>(),
                        "retract_all diverged"
                    );
                }
                Cmd::Probe(ix) if !handles.is_empty() => {
                    let h = handles[ix % handles.len()];
                    prop_assert_eq!(arena.get::<Alpha>(h), legacy.get::<Alpha>(h));
                    prop_assert_eq!(arena.get::<Beta>(h), legacy.get::<Beta>(h));
                    prop_assert_eq!(arena.version(h), legacy.version(h));
                    prop_assert_eq!(arena.contains(h), legacy.contains(h));
                }
                Cmd::LookupByKey(key) => {
                    prop_assert_eq!(
                        arena.lookup_by::<Alpha, u64>(&key),
                        legacy.lookup_by::<Alpha, u64>(&key)
                    );
                }
                Cmd::Checkpoint => checkpoint = arena.generation(),
                // Handle-bearing commands before the first insert: no-ops.
                Cmd::UpdateA(..) | Cmd::UpdateWrongType(_) | Cmd::Retract(_) | Cmd::Probe(_) => {}
            }
            assert_stores_agree(&arena, &legacy, checkpoint);
        }
        // Use-after-retract: every id whose handle is gone must miss via
        // generation mismatch; every live one must still resolve.
        for (h, id) in ids {
            if arena.contains(h) {
                prop_assert_eq!(arena.get_id(id), arena.get::<Alpha>(h));
            } else {
                prop_assert!(
                    arena.get_id(id).is_none(),
                    "stale FactId resolved after retract (slot recycling leak)"
                );
            }
        }
    }
}

// --- firing-counter equivalence over a generic store --------------------

/// The store operations a (miniature) rule engine needs. Both stores
/// implement it with the same inherent methods, so the impls are mechanical.
trait Store {
    fn insert_a(&mut self, a: Alpha) -> FactHandle;
    fn update_a(&mut self, h: FactHandle, bump: u64) -> bool;
    fn retract_fact(&mut self, h: FactHandle) -> bool;
    fn contains_fact(&self, h: FactHandle) -> bool;
    fn version_of(&self, h: FactHandle) -> Option<u64>;
    fn snapshot_a(&self) -> Vec<(FactHandle, Alpha)>;
    fn gen_now(&self) -> u64;
    fn type_gen_a(&self) -> u64;
}

macro_rules! impl_store {
    ($ty:ty) => {
        impl Store for $ty {
            fn insert_a(&mut self, a: Alpha) -> FactHandle {
                self.insert(a)
            }
            fn update_a(&mut self, h: FactHandle, bump: u64) -> bool {
                self.update::<Alpha>(h, |a| a.n += bump)
            }
            fn retract_fact(&mut self, h: FactHandle) -> bool {
                self.retract(h)
            }
            fn contains_fact(&self, h: FactHandle) -> bool {
                self.contains(h)
            }
            fn version_of(&self, h: FactHandle) -> Option<u64> {
                self.version(h)
            }
            fn snapshot_a(&self) -> Vec<(FactHandle, Alpha)> {
                self.iter::<Alpha>().map(|(h, a)| (h, a.clone())).collect()
            }
            fn gen_now(&self) -> u64 {
                self.generation()
            }
            fn type_gen_a(&self) -> u64 {
                self.type_generation_of::<Alpha>()
            }
        }
    };
}
impl_store!(WorkingMemory);
impl_store!(LegacyWorkingMemory);

/// The per-rule counters `pwm_rules::Session::rule_stats` reports, reproduced
/// by the mini evaluator so they can be compared across stores.
#[derive(Debug, PartialEq, Default)]
struct Counters {
    evaluations: u64,
    matches: u64,
    firings: u64,
}

/// A one-rule engine with Drools refraction, structured exactly like
/// `Session::fire_all`'s incremental loop: the matcher only re-runs when
/// the watched type's generation moved, matches are `(handle, version)`
/// refraction-keyed, and the action mutates the matched fact. The rule:
/// "while `n` is odd, add `step`".
fn fire_to_quiescence<S: Store>(store: &mut S, step: u64) -> Counters {
    let mut c = Counters::default();
    let mut fired: std::collections::HashSet<(FactHandle, u64)> = std::collections::HashSet::new();
    let mut cache_gen = 0u64;
    let mut agenda: Vec<FactHandle> = Vec::new();
    for _ in 0..10_000 {
        if store.type_gen_a() > cache_gen {
            c.evaluations += 1;
            agenda = store
                .snapshot_a()
                .iter()
                .filter(|(_, a)| a.n % 2 == 1)
                .map(|(h, _)| *h)
                .collect();
            c.matches += agenda.len() as u64;
            cache_gen = store.gen_now();
        }
        let next = agenda.iter().copied().find(|h| {
            store.contains_fact(*h)
                && store
                    .version_of(*h)
                    .is_some_and(|v| !fired.contains(&(*h, v)))
        });
        let Some(h) = next else { break };
        let v = store.version_of(h).unwrap();
        fired.insert((h, v));
        c.firings += 1;
        store.update_a(h, step);
    }
    c
}

/// Identical workloads through the mini engine must yield identical
/// counters and final fact states on both stores — the firing-report
/// equivalence leg of the differential harness.
#[test]
fn firing_counters_match_across_stores() {
    // Steps are odd so "add `step`" always flips parity and the rule
    // genuinely quiesces (an even step would leave odd facts odd forever).
    for (step, seed_facts, retract_every) in
        [(1u64, 7u64, 0usize), (3, 12, 3), (5, 30, 4), (1, 64, 5)]
    {
        let mut arena = WorkingMemory::new();
        let mut legacy = LegacyWorkingMemory::new();
        let mut handles = Vec::new();
        for i in 0..seed_facts {
            let a = Alpha {
                n: i * 3 + 1,
                key: i % 4,
            };
            let ha = arena.insert_a(a.clone());
            let hl = legacy.insert_a(a);
            assert_eq!(ha, hl);
            handles.push(ha);
        }
        if retract_every > 0 {
            for (i, h) in handles.iter().enumerate() {
                if i % retract_every == 0 {
                    assert_eq!(arena.retract_fact(*h), legacy.retract_fact(*h));
                }
            }
        }
        let ca = fire_to_quiescence(&mut arena, step);
        let cl = fire_to_quiescence(&mut legacy, step);
        assert_eq!(ca, cl, "firing counters diverged (step={step})");
        assert_eq!(
            arena.snapshot_a(),
            legacy.snapshot_a(),
            "post-quiescence fact state diverged"
        );
        // The rule drove every fact to an even n; quiescence is real.
        assert!(arena.snapshot_a().iter().all(|(_, a)| a.n % 2 == 0));
    }
}
