//! Integration: batched advice on a seeded Montage session.
//!
//! The REST event loop collapses a window of pipelined transfer requests
//! into one [`PolicyService::evaluate_transfer_groups`] call. Pipelining
//! must be invisible to clients: the batched call has to hand out exactly
//! what one [`PolicyService::evaluate_transfers`] call per request would —
//! same advice (ids, groups, streams, order), same audit trail, same
//! policy memory, same counters.

use pwm_core::{ClusterId, WorkflowId};
use pwm_core::{PolicyConfig, PolicyService, TransferAdvice, TransferOutcome, TransferSpec};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::paper_testbed;
use pwm_workflow::{plan, ComputeSite, PlanJobKind, PlannerConfig};

/// The stage-in request groups of a seeded Montage plan, in plan order —
/// exactly the specs the workflow executor submits per staging job.
fn montage_stage_in_groups(seed: u64) -> Vec<Vec<TransferSpec>> {
    let (_topo, gridftp, apache, nfs) = paper_testbed();
    let site = ComputeSite {
        name: "obelix".into(),
        nodes: 9,
        cores_per_node: 6,
        storage_host: nfs,
        storage_host_name: "obelix-nfs".into(),
        scratch_dir: "/scratch".into(),
    };
    let wf = montage_workflow(&MontageConfig {
        extra_file_bytes: 10_000_000,
        seed,
        ..Default::default()
    });
    let rc = montage_replicas(&wf, ("apache-isi", apache), ("gridftp-vm", gridftp));
    let p = plan(&wf, &site, &rc, &PlannerConfig::default()).unwrap();
    let mut groups = Vec::new();
    for job in p.jobs() {
        if let PlanJobKind::StageIn { transfers, cluster } = &job.kind {
            groups.push(
                transfers
                    .iter()
                    .map(|pt| TransferSpec {
                        source: pt.source.clone(),
                        dest: pt.dest.clone(),
                        bytes: pt.bytes,
                        requested_streams: None,
                        workflow: job.workflow.unwrap_or(WorkflowId(1)),
                        cluster: cluster.map(ClusterId),
                        priority: Some(job.priority),
                    })
                    .collect(),
            );
        }
    }
    assert!(groups.len() >= 80, "Montage has ~89 staging jobs");
    groups
}

/// Every granted transfer in `advice`, reported complete.
fn completions(advice: &[Vec<TransferAdvice>]) -> Vec<TransferOutcome> {
    advice
        .iter()
        .flatten()
        .filter(|a| a.should_execute())
        .map(|a| TransferOutcome {
            id: a.id,
            success: true,
        })
        .collect()
}

#[test]
fn batched_groups_match_one_call_per_group_on_montage_sessions() {
    let config = PolicyConfig::default()
        .with_default_streams(8)
        .with_threshold(50);
    for seed in 1..=3 {
        let mut batched = PolicyService::new(config.clone());
        let mut sequential = PolicyService::new(config.clone());

        // Drive the plan's staging jobs in windows of four groups — the
        // event loop's pipelined-batch shape — reporting every granted
        // transfer complete between windows, as the PTT does.
        for window in montage_stage_in_groups(seed).chunks(4) {
            let lhs = batched.evaluate_transfer_groups(window.to_vec());
            let rhs: Vec<Vec<TransferAdvice>> = window
                .iter()
                .map(|g| sequential.evaluate_transfers(g.clone()))
                .collect();
            assert_eq!(lhs, rhs, "seed {seed}: batched advice diverged");
            batched.report_transfers(completions(&lhs));
            sequential.report_transfers(completions(&rhs));
        }

        assert_eq!(
            batched.audit_since(0),
            sequential.audit_since(0),
            "seed {seed}: audit trail diverged"
        );
        assert_eq!(
            batched.snapshot(),
            sequential.snapshot(),
            "seed {seed}: policy memory diverged"
        );
        assert_eq!(
            batched.stats(),
            sequential.stats(),
            "seed {seed}: counters diverged"
        );
    }
}
