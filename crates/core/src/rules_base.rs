//! The Table I rule set: "Policies enforced for all transfers".
//!
//! Each rule below corresponds to one row of Table I in the paper (quoted in
//! the rule names). They run at high salience so that bookkeeping (dedup,
//! resource tracking, grouping, defaults) settles before the allocation
//! policies (Tables II/III, salience 50) charge streams.

use crate::ctx::PolicyCtx;
use crate::model::{
    CleanupFact, CleanupId, CleanupState, HostPairFact, ResourceFact, ResourceState,
    SuppressReason, TransferFact, TransferId, TransferState, Url,
};
use pwm_rules::{FactHandle, Rule, Session, WorkingMemory};

/// 64-bit hash key of `parts`, each followed by a separator byte so that
/// `("ab", "c")` and `("a", "bc")` hash apart. Every index probe through
/// such a key re-verifies the strings, so a collision costs a compare,
/// never a wrong match — which is why the cheap word-at-a-time FxHash is
/// enough here (byte-at-a-time FNV-1a cost ~10% of a greedy Montage run).
fn str_key<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    use std::hash::Hasher;
    let mut h = pwm_rules::FxHasher::default();
    for part in parts {
        h.write(part.as_bytes());
        h.write_u8(0x1f);
    }
    h.finish()
}

/// Hash key of a transfer's (source, destination) URL pair. Transfer facts
/// are indexed by this so the dedup rules probe a tiny hash bucket instead
/// of scanning every resident transfer; bucket hits re-verify the URLs.
pub(crate) fn transfer_pair_key(source: &Url, dest: &Url) -> u64 {
    str_key([
        source.scheme.as_str(),
        &source.host,
        &source.path,
        &dest.scheme,
        &dest.host,
        &dest.path,
    ])
}

/// Hash key of one URL: the index key of [`ResourceFact`]s (by
/// destination). Like [`transfer_pair_key`], probes re-verify the URL.
fn url_key(url: &Url) -> u64 {
    str_key([url.scheme.as_str(), &url.host, &url.path])
}

/// Hash key of a (source, destination) host pair: the index key of
/// [`HostPairFact`]s, re-verified on every probe.
fn host_pair_key(src_host: &str, dst_host: &str) -> u64 {
    str_key([src_host, dst_host])
}

/// Indexed probe: the resource tracking the staged file at `dest`, if any.
/// Resources are unique per destination ("create a resource" guards on it).
pub(crate) fn resource_for<'a>(
    wm: &'a WorkingMemory,
    dest: &Url,
) -> Option<(FactHandle, &'a ResourceFact)> {
    wm.iter_by::<ResourceFact, u64>(&url_key(dest))
        .find(|(_, r)| r.dest == *dest)
}

/// Iterate only the transfers of the batch currently under evaluation —
/// the indexed equivalent of `iter::<TransferFact>()` + an
/// `in_current_batch` filter, O(batch) instead of O(resident transfers).
pub(crate) fn batch_transfers<'a>(
    wm: &'a WorkingMemory,
) -> impl Iterator<Item = (FactHandle, &'a TransferFact)> + 'a {
    wm.iter_by::<TransferFact, bool>(&true)
}

/// Indexed probe: the allocation ledger for a (source, destination) host
/// pair, if any. Pairs are unique ("generate a unique group ID" guards).
pub(crate) fn host_pair_for<'a>(
    wm: &'a WorkingMemory,
    src_host: &str,
    dst_host: &str,
) -> Option<(FactHandle, &'a HostPairFact)> {
    wm.iter_by::<HostPairFact, u64>(&host_pair_key(src_host, dst_host))
        .find(|(_, p)| p.src_host == src_host && p.dst_host == dst_host)
}

/// Indexed probe: the resident transfer with id `id`, if any.
pub(crate) fn transfer_by_id(wm: &WorkingMemory, id: TransferId) -> Option<FactHandle> {
    wm.find_by::<TransferFact, TransferId>(&id).map(|(h, _)| h)
}

/// Indexed probe: the resident cleanup with id `id`, if any.
pub(crate) fn cleanup_by_id(wm: &WorkingMemory, id: CleanupId) -> Option<FactHandle> {
    wm.find_by::<CleanupFact, CleanupId>(&id).map(|(h, _)| h)
}

/// Install the Table I rules into a session.
pub fn install_base_rules(session: &mut Session<PolicyCtx>) {
    // Alpha memories for the equality joins below: rules probe resources by
    // destination URL and ledgers by host pair instead of scanning the full
    // fact population on every re-evaluation. Both are keyed by a `u64`
    // hash of the key strings, so maintaining an index entry hashes a few
    // words instead of cloning the strings; probes re-verify them.
    session
        .wm
        .register_index::<ResourceFact, u64>(|r| url_key(&r.dest));
    session
        .wm
        .register_index::<HostPairFact, u64>(|p| host_pair_key(&p.src_host, &p.dst_host));
    // Outcome reports name their transfer or cleanup by id.
    session
        .wm
        .register_index::<TransferFact, TransferId>(|t| t.id);
    session
        .wm
        .register_index::<CleanupFact, CleanupId>(|c| c.id);
    // Dedup support: transfers bucketed by (source, dest) pair hash so the
    // duplicate / already-in-progress rules compare against the handful of
    // transfers sharing a pair instead of the whole population, and by the
    // current-batch flag so every batch-scoped rule walks O(batch) facts.
    session
        .wm
        .register_index::<TransferFact, u64>(|t| transfer_pair_key(&t.spec.source, &t.spec.dest));
    session
        .wm
        .register_index::<TransferFact, bool>(|t| t.in_current_batch);
    // "Remove duplicate transfers from the transfer list": a batch transfer
    // whose (source, dest) already appears earlier in the same batch is
    // suppressed.
    session.add_rule(
        Rule::new("remove duplicate transfers from the transfer list")
            .salience(100)
            .watches::<TransferFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = transfer_pair_key(&t.spec.source, &t.spec.dest);
                    let earlier_dup = wm.iter_by::<TransferFact, u64>(&key).any(|(uh, u)| {
                        uh < h
                            && u.in_current_batch
                            && u.suppressed.is_none()
                            && u.spec.source == t.spec.source
                            && u.spec.dest == t.spec.dest
                    });
                    if earlier_dup {
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update::<TransferFact>(m[0], |t| {
                        t.suppressed = Some(SuppressReason::DuplicateInBatch);
                    });
                }
            }),
    );

    // "Remove transfers from the transfer list that are already in
    // progress": a matching transfer from an earlier batch is still running.
    session.add_rule(
        Rule::new("remove transfers that are already in progress")
            .salience(95)
            .watches::<TransferFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = transfer_pair_key(&t.spec.source, &t.spec.dest);
                    let in_progress = wm.iter_by::<TransferFact, u64>(&key).any(|(uh, u)| {
                        uh != h
                            && !u.in_current_batch
                            && u.state == TransferState::InProgress
                            && u.spec.source == t.spec.source
                            && u.spec.dest == t.spec.dest
                    });
                    if in_progress {
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update::<TransferFact>(m[0], |t| {
                        t.suppressed = Some(SuppressReason::AlreadyInProgress);
                    });
                }
            }),
    );

    // Dedup against files already staged: "the Policy Service maintains
    // information about the location of staged files so that it can prevent
    // subsequent staging operations from restaging the same files".
    session.add_rule(
        Rule::new("remove transfers whose file is already staged")
            .salience(94)
            .watches::<TransferFact>()
            .watches::<ResourceFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let staged = resource_for(wm, &t.spec.dest)
                        .is_some_and(|(_, r)| r.state == ResourceState::Staged);
                    if staged {
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, ctx, m| {
                if ctx.config.dedup {
                    wm.update::<TransferFact>(m[0], |t| {
                        t.suppressed = Some(SuppressReason::AlreadyStaged);
                    });
                }
            }),
    );

    // "Create a resource for a new transfer to track the resulting staged
    // file".
    session.add_rule(
        Rule::new("create a resource for a new transfer")
            .salience(90)
            .watches::<TransferFact>()
            .watches::<ResourceFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let exists = resource_for(wm, &t.spec.dest).is_some();
                    if !exists {
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, _, m| {
                let (id, source, dest, workflow) = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    (
                        t.id,
                        t.spec.source.clone(),
                        t.spec.dest.clone(),
                        t.spec.workflow,
                    )
                };
                let mut users = std::collections::BTreeSet::new();
                users.insert(workflow);
                wm.insert(ResourceFact {
                    dest,
                    source,
                    users,
                    state: ResourceState::Staging,
                    producer: Some(id),
                });
            }),
    );

    // "Associate a transfer with a resource to track the number of workflows
    // using the staged file" — also for suppressed (duplicate) requests, so
    // a second workflow sharing a staged file protects it from cleanup.
    session.add_rule(
        Rule::new("associate a transfer with a resource")
            .salience(89)
            .watches::<TransferFact>()
            .watches::<ResourceFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if let Some((rh, r)) = resource_for(wm, &t.spec.dest) {
                        if !r.users.contains(&t.spec.workflow) {
                            out.push(vec![h, rh]);
                        }
                    }
                }
                out
            })
            .then(|wm, _, m| {
                let workflow = wm
                    .get::<TransferFact>(m[0])
                    .expect("matched transfer")
                    .spec
                    .workflow;
                wm.update::<ResourceFact>(m[1], |r| {
                    r.users.insert(workflow);
                });
            }),
    );

    // "Generate a unique group ID for a source and destination host pair".
    session.add_rule(
        Rule::new("generate a unique group ID for a host pair")
            .salience(85)
            .watches::<TransferFact>()
            .watches::<HostPairFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                let mut seen: Vec<(&str, &str)> = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.suppressed.is_some() {
                        continue;
                    }
                    let key = (t.spec.source.host.as_str(), t.spec.dest.host.as_str());
                    let exists = host_pair_for(wm, key.0, key.1).is_some();
                    if !exists && !seen.contains(&key) {
                        seen.push(key);
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, ctx, m| {
                let new_pair = {
                    let t = wm.get::<TransferFact>(m[0]).expect("matched transfer");
                    // Guard against a pair created by an earlier firing in
                    // the same cascade.
                    host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host)
                        .is_none()
                        .then(|| (t.spec.source.host.clone(), t.spec.dest.host.clone()))
                };
                if let Some((src_host, dst_host)) = new_pair {
                    let group = ctx.fresh_group();
                    wm.insert(HostPairFact {
                        src_host,
                        dst_host,
                        group,
                        allocated: 0,
                        peak_allocated: 0,
                    });
                }
            }),
    );

    // "Assign the group ID to a transfer based on its source and destination
    // host pair".
    session.add_rule(
        Rule::new("assign the group ID to a transfer")
            .salience(84)
            .watches::<TransferFact>()
            .watches::<HostPairFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, t) in batch_transfers(wm) {
                    if t.group.is_some() || t.suppressed.is_some() {
                        continue;
                    }
                    if let Some((ph, _)) = host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host)
                    {
                        out.push(vec![h, ph]);
                    }
                }
                out
            })
            .then(|wm, _, m| {
                let group = wm.get::<HostPairFact>(m[1]).expect("matched pair").group;
                wm.update::<TransferFact>(m[0], |t| t.group = Some(group));
            }),
    );

    // "Assign a default level of parallel streams to a transfer".
    session.add_rule(
        Rule::new("assign a default level of parallel streams")
            .salience(80)
            .when_each::<TransferFact>(|t, _: &PolicyCtx| t.in_current_batch && t.streams.is_none())
            .then(|wm, ctx, m| {
                let default = ctx.config.default_streams;
                wm.update::<TransferFact>(m[0], |t| {
                    t.streams = Some(t.spec.requested_streams.unwrap_or(default));
                });
            }),
    );

    // "Ensure each transfer has at least one parallel stream assigned".
    session.add_rule(
        Rule::new("ensure each transfer has at least one parallel stream")
            .salience(20)
            .when_each::<TransferFact>(|t, _: &PolicyCtx| t.streams == Some(0))
            .then(|wm, _, m| {
                wm.update::<TransferFact>(m[0], |t| t.streams = Some(1));
            }),
    );

    // "Remove a transfer that has completed": release its charged streams,
    // mark the resource staged, and retract the fact. "The detailed state
    // about successfully completed transfers is removed from the Policy
    // Memory; however, the Policy Service maintains information about the
    // location of staged files."
    session.add_rule(
        Rule::new("remove a transfer that has completed")
            .salience(70)
            .when_each::<TransferFact>(|t, _: &PolicyCtx| t.state == TransferState::Completed)
            .then(|wm, _, m| {
                let (id, charged, pair, resource) = finished_transfer(wm, m[0]);
                release_streams(wm, pair, charged);
                if let Some(rh) = resource {
                    wm.update::<ResourceFact>(rh, |r| {
                        if r.producer == Some(id) {
                            r.state = ResourceState::Staged;
                            r.producer = None;
                        }
                    });
                }
                wm.retract(m[0]);
            }),
    );

    // "Remove a transfer that has failed": release streams; drop the
    // half-made resource so a retry is not treated as a duplicate.
    session.add_rule(
        Rule::new("remove a transfer that has failed")
            .salience(70)
            .when_each::<TransferFact>(|t, _: &PolicyCtx| t.state == TransferState::Failed)
            .then(|wm, _, m| {
                let (id, charged, pair, resource) = finished_transfer(wm, m[0]);
                release_streams(wm, pair, charged);
                if let Some(rh) = resource {
                    let r = wm.get::<ResourceFact>(rh).expect("probed resource");
                    if r.producer == Some(id) && r.state == ResourceState::Staging {
                        wm.retract(rh);
                    }
                }
                wm.retract(m[0]);
            }),
    );

    install_cleanup_rules(session);
}

/// What a completed or failed transfer settles on its way out of memory:
/// its id, the streams it charged, its host pair's ledger (if one exists)
/// and the resource tracking its destination (if one exists).
fn finished_transfer(
    wm: &WorkingMemory,
    h: FactHandle,
) -> (TransferId, u32, Option<FactHandle>, Option<FactHandle>) {
    let t = wm.get::<TransferFact>(h).expect("matched transfer");
    (
        t.id,
        t.charged_streams,
        host_pair_for(wm, &t.spec.source.host, &t.spec.dest.host).map(|(ph, _)| ph),
        resource_for(wm, &t.spec.dest).map(|(rh, _)| rh),
    )
}

fn release_streams(wm: &mut WorkingMemory, pair: Option<FactHandle>, charged: u32) {
    if charged == 0 {
        return;
    }
    if let Some(ph) = pair {
        wm.update::<HostPairFact>(ph, |p| {
            p.allocated = p.allocated.saturating_sub(charged);
        });
    }
}

/// The cleanup-related rows of Table I.
fn install_cleanup_rules(session: &mut Session<PolicyCtx>) {
    // Duplicate cleanup: "If there is a duplicate cleanup request and the
    // cleanup operation is in progress or completed, the Policy Service
    // removes the current operation from the cleanup list."
    session.add_rule(
        Rule::new("remove duplicate cleanup requests")
            .salience(60)
            .watches::<CleanupFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, c) in wm.iter::<CleanupFact>() {
                    if !c.in_current_batch || c.suppressed.is_some() {
                        continue;
                    }
                    let dup = wm.iter::<CleanupFact>().any(|(uh, u)| {
                        uh != h
                            && u.spec.file == c.spec.file
                            && u.suppressed.is_none()
                            && (uh < h || !u.in_current_batch)
                            && matches!(u.state, CleanupState::Pending | CleanupState::InProgress)
                    });
                    if dup {
                        out.push(vec![h]);
                    }
                }
                out
            })
            .then(|wm, _, m| {
                wm.update::<CleanupFact>(m[0], |c| {
                    c.suppressed = Some(SuppressReason::DuplicateCleanup);
                });
            }),
    );

    // "Detach a transfer from the resource when it requests to cleanup the
    // resource's staged file".
    session.add_rule(
        Rule::new("detach a transfer from the resource on cleanup request")
            .salience(58)
            .watches::<CleanupFact>()
            .watches::<ResourceFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, c) in wm.iter::<CleanupFact>() {
                    if !c.in_current_batch || c.suppressed.is_some() {
                        continue;
                    }
                    if let Some((rh, r)) = resource_for(wm, &c.spec.file) {
                        if r.users.contains(&c.spec.workflow) {
                            out.push(vec![h, rh]);
                        }
                    }
                }
                out
            })
            .then(|wm, _, m| {
                let workflow = wm
                    .get::<CleanupFact>(m[0])
                    .expect("matched cleanup")
                    .spec
                    .workflow;
                wm.update::<ResourceFact>(m[1], |r| {
                    r.users.remove(&workflow);
                });
            }),
    );

    // "Remove cleanups from the cleanup list that specify resources that
    // have other transfers using the staged files" — i.e. "if the Policy
    // Service receives a cleanup request for a file that is in use by other
    // workflows, then it removes the cleanup operation from the list".
    session.add_rule(
        Rule::new("remove cleanups for resources still in use")
            .salience(55)
            .watches::<CleanupFact>()
            .watches::<ResourceFact>()
            .when(|wm, _: &PolicyCtx| {
                let mut out = Vec::new();
                for (h, c) in wm.iter::<CleanupFact>() {
                    if !c.in_current_batch || c.suppressed.is_some() {
                        continue;
                    }
                    if let Some((_, r)) = resource_for(wm, &c.spec.file) {
                        if !r.users.is_empty() {
                            out.push(vec![h]);
                        }
                    }
                }
                out
            })
            .then(|wm, _, m| {
                wm.update::<CleanupFact>(m[0], |c| {
                    c.suppressed = Some(SuppressReason::ResourceInUse);
                });
            }),
    );

    // Completed cleanups leave policy memory, along with the resource whose
    // file no longer exists.
    session.add_rule(
        Rule::new("remove a cleanup that has completed")
            .salience(54)
            .when_each::<CleanupFact>(|c, _: &PolicyCtx| c.state == CleanupState::Completed)
            .then(|wm, _, m| {
                let file = wm
                    .get::<CleanupFact>(m[0])
                    .expect("matched cleanup")
                    .spec
                    .file
                    .clone();
                if let Some((rh, r)) = resource_for(wm, &file) {
                    if r.users.is_empty() {
                        wm.retract(rh);
                    }
                }
                wm.retract(m[0]);
            }),
    );
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // configs are tweaked per-test
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::ctx::PolicyCtx;
    use crate::model::*;
    use pwm_rules::Session;

    fn session() -> (Session<PolicyCtx>, PolicyCtx) {
        let mut s = Session::new();
        install_base_rules(&mut s);
        (s, PolicyCtx::new(PolicyConfig::default()))
    }

    fn fact(id: u64, src_path: &str, dst_path: &str, wf: u64) -> TransferFact {
        TransferFact {
            id: TransferId(id),
            spec: TransferSpec {
                source: Url::new("gsiftp", "src-host", src_path),
                dest: Url::new("file", "dst-host", dst_path),
                bytes: 1,
                requested_streams: None,
                workflow: WorkflowId(wf),
                cluster: None,
                priority: None,
            },
            state: TransferState::Pending,
            streams: None,
            charged_streams: 0,
            group: None,
            in_current_batch: true,
            suppressed: None,
            cluster_released: false,
            backend: None,
            backend_released: false,
        }
    }

    #[test]
    fn rule_insert_new_transfers_creates_resources() {
        // Table I: "Create a resource for a new transfer to track the
        // resulting staged file."
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<ResourceFact>(), 1);
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert_eq!(r.state, ResourceState::Staging);
        assert_eq!(r.producer, Some(TransferId(1)));
        assert!(r.users.contains(&WorkflowId(1)));
    }

    #[test]
    fn rule_duplicate_removal_keeps_the_first() {
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        let suppressed: Vec<_> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| (t.id, t.suppressed))
                .collect();
        assert_eq!(suppressed[0], (TransferId(1), None));
        assert_eq!(
            suppressed[1],
            (TransferId(2), Some(SuppressReason::DuplicateInBatch))
        );
        // Only one resource despite two requests.
        assert_eq!(s.wm.count::<ResourceFact>(), 1);
    }

    #[test]
    fn rule_dedup_disabled_by_config() {
        let mut s = Session::new();
        install_base_rules(&mut s);
        let mut cfg = PolicyConfig::default();
        cfg.dedup = false;
        let mut ctx = PolicyCtx::new(cfg);
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        assert!(s
            .wm
            .iter::<TransferFact>()
            .all(|(_, t)| t.suppressed.is_none()));
    }

    #[test]
    fn rule_group_id_per_host_pair() {
        // Table I: "Generate a unique group ID for a source and destination
        // host pair" + "Assign the group ID to a transfer".
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        s.wm.insert(fact(2, "/b", "/b", 1));
        let mut other = fact(3, "/c", "/c", 1);
        other.spec.source.host = "other-host".into();
        s.wm.insert(other);
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<HostPairFact>(), 2);
        let groups: Vec<Option<GroupId>> =
            s.wm.iter::<TransferFact>().map(|(_, t)| t.group).collect();
        assert_eq!(groups[0], groups[1], "same pair, same group");
        assert_ne!(groups[0], groups[2], "different pair, different group");
        assert!(groups.iter().all(|g| g.is_some()));
    }

    #[test]
    fn rule_default_streams_and_floor() {
        let (mut s, mut ctx) = session();
        s.wm.insert(fact(1, "/a", "/a", 1));
        let mut zero = fact(2, "/b", "/b", 1);
        zero.spec.requested_streams = Some(0);
        s.wm.insert(zero);
        s.fire_all(&mut ctx);
        let streams: Vec<Option<u32>> =
            s.wm.iter::<TransferFact>()
                .map(|(_, t)| t.streams)
                .collect();
        assert_eq!(streams[0], Some(4), "default assigned");
        assert_eq!(streams[1], Some(1), "zero request floored to one");
    }

    #[test]
    fn rule_completed_transfer_removed_resource_staged() {
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::Completed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<TransferFact>(), 0, "transfer fact removed");
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert_eq!(r.state, ResourceState::Staged, "staged-file location kept");
        assert_eq!(r.producer, None);
    }

    #[test]
    fn rule_failed_transfer_removed_with_its_resource() {
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::Failed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<TransferFact>(), 0);
        assert_eq!(
            s.wm.count::<ResourceFact>(),
            0,
            "half-staged resource dropped"
        );
    }

    fn cleanup_fact(id: u64, path: &str, wf: u64) -> CleanupFact {
        CleanupFact {
            id: CleanupId(id),
            spec: CleanupSpec {
                file: Url::new("file", "dst-host", path),
                workflow: WorkflowId(wf),
            },
            state: CleanupState::Pending,
            in_current_batch: true,
            suppressed: None,
        }
    }

    fn staged_resource(s: &mut Session<PolicyCtx>, path: &str, users: &[u64]) {
        let mut set = std::collections::BTreeSet::new();
        for &u in users {
            set.insert(WorkflowId(u));
        }
        s.wm.insert(ResourceFact {
            dest: Url::new("file", "dst-host", path),
            source: Url::new("gsiftp", "src-host", path),
            users: set,
            state: ResourceState::Staged,
            producer: None,
        });
    }

    #[test]
    fn rule_detach_then_in_use_suppression() {
        // Table I: "Detach a transfer from the resource when it requests to
        // cleanup" + "Remove cleanups ... that have other transfers using
        // the staged files".
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1, 2]);
        s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<CleanupFact>(|_| true).unwrap();
        assert_eq!(c.suppressed, Some(SuppressReason::ResourceInUse));
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert!(!r.users.contains(&WorkflowId(1)), "requester detached");
        assert!(r.users.contains(&WorkflowId(2)), "other user kept");
    }

    #[test]
    fn rule_last_user_cleanup_proceeds() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, c) = s.wm.find::<CleanupFact>(|_| true).unwrap();
        assert_eq!(c.suppressed, None, "no other users: cleanup proceeds");
    }

    #[test]
    fn rule_duplicate_cleanup_suppressed() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        let h1 = s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        // First cleanup handed out (in progress).
        s.wm.update::<CleanupFact>(h1, |c| {
            c.in_current_batch = false;
            c.state = CleanupState::InProgress;
        });
        s.wm.insert(cleanup_fact(2, "/a", 1));
        s.fire_all(&mut ctx);
        let (_, dup) = s.wm.find::<CleanupFact>(|c| c.id == CleanupId(2)).unwrap();
        assert_eq!(dup.suppressed, Some(SuppressReason::DuplicateCleanup));
    }

    #[test]
    fn rule_completed_cleanup_removes_resource() {
        let (mut s, mut ctx) = session();
        staged_resource(&mut s, "/a", &[1]);
        let h = s.wm.insert(cleanup_fact(1, "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<CleanupFact>(h, |c| {
            c.in_current_batch = false;
            c.state = CleanupState::Completed;
        });
        s.fire_all(&mut ctx);
        assert_eq!(s.wm.count::<CleanupFact>(), 0);
        assert_eq!(s.wm.count::<ResourceFact>(), 0);
    }

    #[test]
    fn rule_in_progress_dedup_attaches_workflow() {
        // A transfer already in progress suppresses the new request AND the
        // new workflow becomes a user of the staged file.
        let (mut s, mut ctx) = session();
        let h = s.wm.insert(fact(1, "/a", "/a", 1));
        s.fire_all(&mut ctx);
        s.wm.update::<TransferFact>(h, |t| {
            t.in_current_batch = false;
            t.state = TransferState::InProgress;
        });
        s.wm.insert(fact(2, "/a", "/a", 2));
        s.fire_all(&mut ctx);
        let (_, second) =
            s.wm.find::<TransferFact>(|t| t.id == TransferId(2))
                .unwrap();
        assert_eq!(second.suppressed, Some(SuppressReason::AlreadyInProgress));
        let (_, r) = s.wm.find::<ResourceFact>(|_| true).unwrap();
        assert!(r.users.contains(&WorkflowId(2)));
    }
}
