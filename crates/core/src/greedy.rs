//! The Table II rule set: greedy stream allocation.
//!
//! "Transfers are allocated their requested number of parallel streams until
//! the threshold is exceeded. Transfers that are initiated after this
//! threshold is reached are allocated a single stream." The grant arithmetic
//! lives in [`crate::ledger::greedy_grant`]; these rules retrieve the
//! host-pair threshold, enforce it, and record the charge against the ledger
//! fact — the five rows of Table II.

use crate::ctx::PolicyCtx;
use crate::ledger::greedy_grant;
use crate::model::{HostPairFact, TransferFact};
use crate::rules_base::{batch_transfers, host_pair_for};
use pwm_rules::{Rule, Session};

/// Install the greedy allocation rules (salience 50, i.e. after all Table I
/// bookkeeping has settled for the batch).
pub fn install_greedy_rules(session: &mut Session<PolicyCtx>) {
    // One rule implements the "retrieve threshold / enforce maximum / clip
    // at the boundary / single stream past saturation / record the charge"
    // sequence atomically per transfer; transfers are charged in working-
    // memory (insertion) order, which is the order the PTT submitted them.
    session.add_rule(
        Rule::new("greedy: enforce the parallel-streams threshold on a transfer")
            .salience(50)
            .watches::<TransferFact>()
            .watches::<HostPairFact>()
            .when(|wm, ctx: &PolicyCtx| {
                if ctx.config.allocation != crate::config::AllocationPolicy::Greedy {
                    return Vec::new();
                }
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() || t.charged_streams > 0 || t.streams.is_none() {
                        continue;
                    }
                    if let Some((ph, _)) = host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host)
                    {
                        out.push(vec![h, ph]);
                    }
                }
                out
            })
            .then(|wm, ctx, m| {
                let (requested, threshold) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (
                        t.streams.unwrap_or(1),
                        ctx.config
                            .threshold_for(&t.spec.source.host, &t.spec.dest.host),
                    )
                };
                let allocated = wm
                    .get::<HostPairFact>(m[1])
                    .expect("matched host pair")
                    .allocated;
                let grant = greedy_grant(allocated, requested, threshold);
                wm.update::<HostPairFact>(m[1], |p| {
                    p.allocated += grant;
                    p.peak_allocated = p.peak_allocated.max(p.allocated);
                });
                wm.update::<TransferFact>(m[0], |t| {
                    t.streams = Some(grant);
                    t.charged_streams = grant;
                });
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocationPolicy, PolicyConfig};
    use crate::model::*;
    use crate::rules_base::install_base_rules;

    fn spec(n: u32) -> TransferSpec {
        TransferSpec {
            source: Url::new("gsiftp", "tacc", format!("/data/f{n}.dat")),
            dest: Url::new("file", "isi", format!("/scratch/f{n}.dat")),
            bytes: 1,
            requested_streams: None,
            workflow: WorkflowId(1),
            cluster: None,
            priority: None,
        }
    }

    fn session_with(config: PolicyConfig) -> (Session<PolicyCtx>, PolicyCtx) {
        let mut s = Session::new();
        install_base_rules(&mut s);
        install_greedy_rules(&mut s);
        (s, PolicyCtx::new(config))
    }

    fn submit_batch(s: &mut Session<PolicyCtx>, ctx: &mut PolicyCtx, specs: Vec<TransferSpec>) {
        for (i, sp) in specs.into_iter().enumerate() {
            s.wm.insert(TransferFact {
                id: TransferId(i as u64),
                spec: sp,
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
        }
        s.fire_all(ctx);
    }

    #[test]
    fn grants_defaults_until_threshold_then_ones() {
        let cfg = PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50)
            .with_allocation(AllocationPolicy::Greedy);
        let (mut s, mut ctx) = session_with(cfg);
        submit_batch(&mut s, &mut ctx, (0..20).map(spec).collect());
        let grants: Vec<u32> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.charged_streams)
                .collect();
        let total: u32 = grants.iter().sum();
        assert_eq!(total, 63, "Table IV: threshold 50, default 8 → 63");
        assert_eq!(grants.iter().filter(|&&g| g == 8).count(), 6);
        assert_eq!(grants.iter().filter(|&&g| g == 2).count(), 1);
        assert_eq!(grants.iter().filter(|&&g| g == 1).count(), 13);
        // Ledger fact agrees.
        let (_, pair) = s.wm.find::<HostPairFact>(|_| true).unwrap();
        assert_eq!(pair.allocated, 63);
        assert_eq!(pair.peak_allocated, 63);
    }

    #[test]
    fn requested_streams_override_the_default() {
        let cfg = PolicyConfig::default()
            .with_default_streams(4)
            .with_threshold(50);
        let (mut s, mut ctx) = session_with(cfg);
        let mut sp = spec(0);
        sp.requested_streams = Some(12);
        submit_batch(&mut s, &mut ctx, vec![sp]);
        let (_, t) = s.wm.find::<TransferFact>(|_| true).unwrap();
        assert_eq!(t.charged_streams, 12);
    }

    #[test]
    fn unlimited_policy_does_not_charge() {
        let cfg = PolicyConfig::default().with_allocation(AllocationPolicy::Unlimited);
        let (mut s, mut ctx) = session_with(cfg);
        submit_batch(&mut s, &mut ctx, (0..5).map(spec).collect());
        for (_, t) in s.wm.iter::<TransferFact>() {
            assert_eq!(t.charged_streams, 0);
            assert_eq!(t.streams, Some(4), "defaults still assigned");
        }
    }

    #[test]
    fn separate_host_pairs_have_separate_ledgers() {
        let cfg = PolicyConfig::default()
            .with_default_streams(30)
            .with_threshold(50);
        let (mut s, mut ctx) = session_with(cfg);
        let mut a = spec(0);
        let mut b = spec(1);
        b.source = Url::new("gsiftp", "other-site", "/data/g.dat");
        a.bytes = 1;
        submit_batch(&mut s, &mut ctx, vec![a, b]);
        let grants: Vec<u32> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.charged_streams)
                .collect();
        // Both fit fully: different pairs don't share a threshold.
        assert_eq!(grants, vec![30, 30]);
        assert_eq!(s.wm.count::<HostPairFact>(), 2);
    }

    #[test]
    fn completion_releases_streams_for_new_arrivals() {
        let cfg = PolicyConfig::default()
            .with_default_streams(25)
            .with_threshold(50);
        let (mut s, mut ctx) = session_with(cfg.clone());
        submit_batch(&mut s, &mut ctx, vec![spec(0), spec(1), spec(2)]);
        // 25 + 25 + 1 = 51 charged.
        let (_, pair) = s.wm.find::<HostPairFact>(|_| true).unwrap();
        assert_eq!(pair.allocated, 51);

        // Complete the first transfer; mark batch processed.
        let handles = s.wm.handles::<TransferFact>();
        for h in &handles {
            s.wm.update::<TransferFact>(*h, |t| t.in_current_batch = false);
        }
        s.wm.update::<TransferFact>(handles[0], |t| {
            t.state = TransferState::Completed;
        });
        s.fire_all(&mut ctx);
        let (_, pair) = s.wm.find::<HostPairFact>(|_| true).unwrap();
        assert_eq!(pair.allocated, 26, "25 streams released");

        // A new arrival now gets its full request again.
        s.wm.insert(TransferFact {
            id: TransferId(99),
            spec: spec(99),
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
        s.fire_all(&mut ctx);
        let (_, t) =
            s.wm.find::<TransferFact>(|t| t.id == TransferId(99))
                .unwrap();
        assert_eq!(t.charged_streams, 24, "clipped to remaining headroom");
    }

    #[test]
    fn suppressed_duplicates_are_not_charged() {
        let cfg = PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50);
        let (mut s, mut ctx) = session_with(cfg);
        submit_batch(&mut s, &mut ctx, vec![spec(0), spec(0)]);
        let charged: Vec<u32> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.charged_streams)
                .collect();
        assert_eq!(charged.iter().sum::<u32>(), 8, "duplicate not charged");
    }

    #[test]
    fn per_pair_threshold_override_applies() {
        let cfg = PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(100)
            .with_pair_threshold("tacc", "isi", 10);
        let (mut s, mut ctx) = session_with(cfg);
        submit_batch(&mut s, &mut ctx, (0..3).map(spec).collect());
        let grants: Vec<u32> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.charged_streams)
                .collect();
        assert_eq!(grants, vec![8, 2, 1]);
    }
}
