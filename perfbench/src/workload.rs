//! The four workloads and the harness that runs one whole workflow run of
//! each: generate → plan → execute, with every policy call going through the
//! [`Timed`] decorator.
//!
//! The world each run builds mirrors the repository's own experiment
//! runners (`MontageExperiment::paper_setup` for the Montage workloads,
//! `resilience::run_cell` for the turbulent one); the benchmark tests assert
//! that the two produce bit-identical `RunStats`. The code is repeated here
//! rather than called because the benchmark times generation, planning and
//! execution separately, and those runners do all three in one call.

use crate::timed::{CallLog, CallRecord, SharedTransport, Timed};
use pwm_core::{
    AllocationPolicy, InProcessTransport, NoPolicyTransport, PolicyConfig, PolicyController,
    StoragePolicy, Url, WorkflowId, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::fault::{LinkFault, LinkFaultKind};
use pwm_net::{paper_testbed, AllocStats, Network, StreamModel, Topology};
use pwm_rest::{PolicyRestClient, PolicyRestServer};
use pwm_sim::{FaultPlan, QueueKind, SimDuration, SimTime};
use pwm_storage::{ec2_trio, CorruptionModel, StorageLayer};
use pwm_workflow::{
    plan, AbstractJob, AbstractWorkflow, BackendOutage, ComputeSite, CrashTarget, ExecutorConfig,
    HostCrash, PlanJobKind, PlannerConfig, RecoveryConfig, ReplicaCatalog, RunStats,
    StorageRuntime, WorkflowExecutor,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Extra WAN-staged bytes per Montage staging job (the paper's 100 MB).
pub const EXTRA_FILE_BYTES: u64 = 100_000_000;
/// Default streams per transfer (the paper's 8).
const DEFAULT_STREAMS: u32 = 8;
/// Greedy host-pair stream threshold (the paper's 50).
const GREEDY_THRESHOLD: u32 = 50;
/// Table IV's cell for greedy-50 at 8 default streams.
pub(crate) const TABLE_IV_PEAK_STREAMS: u32 = 63;
/// Independent jobs of the turbulent recovery scenario.
const RECOVERY_JOBS: usize = 16;
/// Bytes per staged input of the turbulent recovery scenario.
const RECOVERY_FILE_BYTES: u64 = 24_000_000;
/// The storage backend the turbulent outage takes down.
const OUTAGE_BACKEND: &str = "nfs-std";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Montage under greedy-50, in-process Policy Service.
    MontageGreedy,
    /// The same Montage runs through `NoPolicyTransport(8)`.
    MontageNoPolicy,
    /// `MontageGreedy` with the Policy Service behind loopback REST.
    MontageRest,
    /// The resilience scenario at turbulent intensity, policy-guided.
    RecoveryTurbulent,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MontageGreedy,
        Workload::MontageNoPolicy,
        Workload::MontageRest,
        Workload::RecoveryTurbulent,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MontageGreedy => "montage-greedy",
            Workload::MontageNoPolicy => "montage-nopolicy",
            Workload::MontageRest => "montage-rest",
            Workload::RecoveryTurbulent => "recovery-turbulent",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the executor talks to a Policy Service in this process (the
    /// policy layer `core.*` times), as opposed to the no-policy comparator
    /// or a REST server.
    pub fn in_process_service(self) -> bool {
        matches!(self, Workload::MontageGreedy | Workload::RecoveryTurbulent)
    }
}

/// Host-time boundaries of one run's phases.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub start: Instant,
    /// End of workflow, topology and replica generation.
    pub generated: Instant,
    /// End of planning; execution starts here.
    pub planned: Instant,
    /// End of execution: network, policy state and executor built and
    /// run, and the network torn down.
    pub executed: Instant,
}

/// Everything one run leaves behind.
pub struct RunOutput {
    pub stats: RunStats,
    pub alloc: AllocStats,
    pub flows_completed: u64,
    /// Input bytes the plan stages (what `stats.bytes_staged` must equal).
    pub planned_bytes: f64,
    pub calls: Vec<CallRecord>,
    pub phases: Phases,
    /// The run's own Policy Service, when it had one in process; its
    /// registry holds the service-side and rules figures of this run.
    pub controller: Option<PolicyController>,
}

/// The loopback server of `montage-rest`, started once per invocation.
struct RestFixture {
    controller: PolicyController,
    // Held for its lifetime: dropping it shuts the event loop down.
    _server: PolicyRestServer,
    client: SharedTransport,
}

/// Runs whole workflow runs of one workload.
pub struct Harness {
    workload: Workload,
    rest: Option<RestFixture>,
}

/// The paper's greedy-50 configuration at 8 default streams.
pub fn greedy_config() -> PolicyConfig {
    PolicyConfig::default()
        .with_default_streams(DEFAULT_STREAMS)
        .with_threshold(GREEDY_THRESHOLD)
        .with_allocation(AllocationPolicy::Greedy)
}

impl Harness {
    /// Build the harness; for `montage-rest` this starts the server and
    /// opens nothing yet (the client connects on its first call).
    pub fn new(workload: Workload) -> std::io::Result<Harness> {
        let rest = if workload == Workload::MontageRest {
            // Client and server loop share one CPU: a request then hands the
            // CPU over instead of waking the other vCPU, whose wake-up
            // latency on a shared VM host swings run walls by 2x.
            crate::host::pin_to_current_cpu()?;
            let controller = PolicyController::new(greedy_config());
            let server = PolicyRestServer::start(controller.clone())?;
            let client: SharedTransport = Arc::new(Mutex::new(PolicyRestClient::new(
                server.addr(),
                DEFAULT_SESSION,
            )));
            Some(RestFixture {
                controller,
                _server: server,
                client,
            })
        } else {
            None
        };
        Ok(Harness { workload, rest })
    }

    /// The workload this harness runs.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The long-lived controller behind the REST server, if any. Its
    /// registry accumulates over runs, so per-run figures are deltas.
    pub fn shared_controller(&self) -> Option<&PolicyController> {
        self.rest.as_ref().map(|r| &r.controller)
    }

    /// One closed-loop run for `seed`.
    pub fn run(&self, seed: u64) -> RunOutput {
        match self.workload {
            Workload::RecoveryTurbulent => self.run_recovery(seed),
            _ => self.run_montage(seed),
        }
    }

    /// The policy transport of one run, wrapped in the decorator, plus the
    /// in-process controller it talks to (if any).
    fn transport(
        &self,
        config: impl FnOnce() -> PolicyConfig,
        log: &CallLog,
    ) -> (Box<Timed>, Option<PolicyController>) {
        let (inner, controller): (SharedTransport, _) = match (self.workload, &self.rest) {
            (Workload::MontageNoPolicy, _) => (
                Arc::new(Mutex::new(NoPolicyTransport::new(DEFAULT_STREAMS))),
                None,
            ),
            (Workload::MontageRest, Some(rest)) => {
                // A fresh session per run on the shared controller.
                rest.controller.create_session(DEFAULT_SESSION, config());
                (rest.client.clone(), None)
            }
            _ => {
                let controller = PolicyController::new(config());
                let inner = InProcessTransport::new(controller.clone(), DEFAULT_SESSION);
                (Arc::new(Mutex::new(inner)), Some(controller))
            }
        };
        (Box::new(Timed::new(inner, log.clone())), controller)
    }

    fn run_montage(&self, seed: u64) -> RunOutput {
        let start = Instant::now();
        let (topo, gridftp, apache, nfs) = paper_testbed();
        let wan = topo
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id);
        let site = ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: nfs,
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let workflow = montage_workflow(&MontageConfig {
            extra_file_bytes: EXTRA_FILE_BYTES,
            seed,
            ..Default::default()
        });
        let replicas = montage_replicas(&workflow, ("apache-isi", apache), ("gridftp-vm", gridftp));
        let generated = Instant::now();

        let planner_cfg = PlannerConfig {
            clustering_factor: None,
            cleanup: true,
            stage_out: false,
            output_site: None,
            priority: None,
        };
        let executable =
            plan(&workflow, &site, &replicas, &planner_cfg).expect("montage plan must succeed");
        let planned = Instant::now();

        let network =
            Network::with_seed_queue(topo, StreamModel::default(), seed, QueueKind::default());
        let log = CallLog::default();
        let (transport, controller) = self.transport(greedy_config, &log);
        let policy_call_latency = if self.workload == Workload::MontageNoPolicy {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis(75)
        };
        let exec_cfg = ExecutorConfig {
            seed,
            staging_job_limit: 20,
            retries: 5,
            runtime_jitter: 0.15,
            policy_call_latency,
            job_init_overhead: SimDuration::from_secs(2),
            inter_transfer_gap: SimDuration::from_millis(100),
            cleanup_duration: SimDuration::from_millis(500),
            transfer_failure_prob: 0.0,
            workflow_id: WorkflowId(seed),
            watch_link: wan,
            watch_timeline: true,
            cleanup_job_limit: None,
            ..ExecutorConfig::default()
        };
        let executor = WorkflowExecutor::new(&executable, &site, network, transport, exec_cfg);
        let (stats, network) = executor.run();
        let counters = net_counters(network);
        let executed = Instant::now();

        finish(
            stats,
            counters,
            staged_input_bytes(&executable),
            &log,
            Phases {
                start,
                generated,
                planned,
                executed,
            },
            controller,
        )
    }

    fn run_recovery(&self, seed: u64) -> RunOutput {
        let start = Instant::now();
        let trio = ec2_trio();
        let mut topo = Topology::new();
        let datasrc = topo.add_host("datasrc", 12.5e6);
        let mirror = topo.add_host("mirrorsrc", 50.0e6);
        let frontend = topo.add_host("site-nfs", 1.0e9);
        let layer = StorageLayer::install(&mut topo, frontend, &trio);
        let datasrc_link = topo.host(datasrc).access_link;
        let outage_backend = layer.backend(OUTAGE_BACKEND).expect("trio backend");
        let outage_link = topo.host(outage_backend.host).access_link;
        let outage_host = outage_backend.host;

        // The turbulent rung: source crash, backend outage, 50% corruption.
        let crash_at = SimTime::from_secs(5);
        let crash_downtime = SimDuration::from_secs(150);
        let outage_from = SimTime::from_secs(4);
        let outage_for = SimDuration::from_secs(120);
        let mut faults = FaultPlan::new();
        faults.add(
            crash_at,
            crash_downtime,
            LinkFault {
                link: datasrc_link,
                kind: LinkFaultKind::Down,
            },
        );
        faults.add(
            outage_from,
            outage_for,
            LinkFault {
                link: outage_link,
                kind: LinkFaultKind::Down,
            },
        );

        let site = ComputeSite {
            name: "site".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: frontend,
            storage_host_name: "site-nfs".into(),
            scratch_dir: "/scratch".into(),
        };
        let mut wf = AbstractWorkflow::new("resilience");
        let mut rc = ReplicaCatalog::new();
        for i in 0..RECOVERY_JOBS {
            wf.add_job(AbstractJob {
                name: format!("work_{i}"),
                transformation: "work".into(),
                runtime_s: 5.0,
                inputs: vec![format!("in_{i}")],
                outputs: vec![format!("out_{i}")],
            });
            wf.set_file_size(format!("in_{i}"), RECOVERY_FILE_BYTES);
            wf.set_file_size(format!("out_{i}"), 1_000);
            rc.insert(
                format!("in_{i}"),
                Url::new("gsiftp", "datasrc", format!("/data/in_{i}")),
                datasrc,
            );
            rc.insert(
                format!("in_{i}"),
                Url::new("http", "mirrorsrc", format!("/mirror/in_{i}")),
                mirror,
            );
        }
        let generated = Instant::now();

        let p = plan(&wf, &site, &rc, &PlannerConfig::default()).expect("plan resilience workflow");
        let planned = Instant::now();

        let mut network = Network::with_seed(topo, StreamModel::default(), seed);
        network.set_fault_plan(faults);
        let log = CallLog::default();
        let (transport, controller) = self.transport(
            || {
                let mut policy =
                    PolicyConfig::default().with_storage(StoragePolicy::GreedyCheapest);
                for spec in &trio {
                    policy = policy.with_backend(spec.clone(), &site.storage_host_name);
                }
                policy
            },
            &log,
        );
        let mut recovery = RecoveryConfig {
            report_health: true,
            ..RecoveryConfig::default()
        };
        recovery.replicas = rc;
        recovery.corruption = CorruptionModel::new(seed);
        recovery.corruption.set_host_prob("datasrc", 0.5);
        recovery.crashes.push(HostCrash {
            target: CrashTarget::Host {
                host: datasrc,
                name: "datasrc".into(),
            },
            at: crash_at,
            restart_after: crash_downtime,
        });
        recovery.backend_outages.push(BackendOutage {
            backend: OUTAGE_BACKEND.into(),
            host: outage_host,
            from: outage_from,
            duration: outage_for,
        });
        let cfg = ExecutorConfig {
            seed,
            storage: Some(StorageRuntime::new(layer)),
            recovery: Some(recovery),
            ..ExecutorConfig::default()
        };
        let (stats, network) = WorkflowExecutor::new(&p, &site, network, transport, cfg).run();
        let counters = net_counters(network);
        let executed = Instant::now();

        finish(
            stats,
            counters,
            (RECOVERY_JOBS as u64 * RECOVERY_FILE_BYTES) as f64,
            &log,
            Phases {
                start,
                generated,
                planned,
                executed,
            },
            controller,
        )
    }
}

/// Bytes of every distinct file the plan stages in.
fn staged_input_bytes(plan: &pwm_workflow::ExecutablePlan) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    for job in plan.jobs() {
        if let PlanJobKind::StageIn { transfers, .. } = &job.kind {
            for t in transfers {
                if seen.insert(&t.dest) {
                    total += t.bytes;
                }
            }
        }
    }
    total as f64
}

/// The network's counters; dropping the network is the last step of a run,
/// so it is timed with execution.
fn net_counters(network: Network) -> (AllocStats, u64) {
    (network.alloc_stats(), network.total_flows_completed())
}

fn finish(
    stats: RunStats,
    (alloc, flows_completed): (AllocStats, u64),
    planned_bytes: f64,
    log: &CallLog,
    phases: Phases,
    controller: Option<PolicyController>,
) -> RunOutput {
    let calls = std::mem::take(&mut *log.lock().expect("call log lock poisoned"));
    RunOutput {
        stats,
        alloc,
        flows_completed,
        planned_bytes,
        calls,
        phases,
        controller,
    }
}
