//! The one validated entry point: [`run`] drives an [`ArrivalSpec`]
//! through a [`TopologySpec`], or rejects a [`RunConfig`] the pair would
//! not honour with a [`ConfigError`].

use crate::config::RunConfig;
use crate::engine::{self, Arrivals, Routing, Topology};
use crate::result::RunResult;
use crate::runner::{Deployment, Session};
use pronghorn_cluster::ClusterSpec;
use pronghorn_sim::SimDuration;
use pronghorn_traces::Trace;
use pronghorn_workloads::Workload;
use std::fmt;
use std::num::NonZeroU32;

/// Where a run's requests come from.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalSpec<'t> {
    /// §5.1's closed loop: `cfg.invocations` requests `cfg.request_gap`
    /// apart; a worker also retires after `cfg.eviction_rate` requests.
    ClosedLoop,
    /// Figure 6's already-deployed function: the closed loop of
    /// `cfg.invocations` requests as unreported history, then the trace as
    /// the measured window, on a clock restarted at its origin.
    Trace(&'t Trace),
}

/// Deployments × nodes × worker slots, and how an arrival picks its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// One deployment on one node with one worker slot.
    Single,
    /// §5.3's fleet: arrival `i` on slot `i mod workers` of one deployment,
    /// and only the first `explorers` slots checkpoint. A closed loop's
    /// gap shrinks by `workers`, so per-slot load matches `Single`.
    Fleet {
        /// Worker slots.
        workers: NonZeroU32,
        /// Slots that take checkpoints.
        explorers: u32,
    },
    /// §6: one single-slot deployment per log-spaced input-size class;
    /// a request's novelty is re-based to its class centre.
    Classes(NonZeroU32),
    /// `cfg.cluster`'s nodes behind a consistent-hash gateway, with
    /// load-aware spillover and per-node snapshot residency.
    Cluster,
}

/// A [`RunConfig`] that [`run`] rejects rather than silently ignore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Only [`TopologySpec::Cluster`] reads `cfg.cluster`, which needs a
    /// node and a slot; every other topology needs
    /// [`ClusterSpec::single_node`].
    ClusterShape(ClusterSpec),
    /// A fleet with more explorers than workers.
    Explorers {
        /// The requested explorers.
        explorers: u32,
        /// The fleet's workers.
        workers: u32,
    },
    /// The resolved policy configuration is invalid.
    Policy(pronghorn_core::ConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ClusterShape(c) => {
                let (nodes, slots) = (c.nodes, c.capacity);
                write!(
                    f,
                    "a {nodes}-node cluster of {slots} slots does not fit the topology"
                )
            }
            ConfigError::Explorers { explorers, workers } => {
                write!(f, "{explorers} explorers exceed {workers} workers")
            }
            ConfigError::Policy(e) => write!(f, "invalid policy config: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `topology` honours every knob of `cfg` for `workload`.
pub(crate) fn validate(
    workload: &dyn Workload,
    cfg: &RunConfig,
    topology: TopologySpec,
) -> Result<(), ConfigError> {
    let c = cfg.cluster;
    let fits = match topology {
        TopologySpec::Cluster => c.nodes > 0 && c.capacity > 0,
        _ => c == ClusterSpec::single_node(),
    };
    if !fits {
        return Err(ConfigError::ClusterShape(c));
    }
    if let TopologySpec::Fleet { workers, explorers } = topology {
        if explorers > workers.get() {
            let workers = workers.get();
            return Err(ConfigError::Explorers { explorers, workers });
        }
    }
    let policy = cfg.resolve_policy_config(workload.kind());
    policy.validate().map_err(ConfigError::Policy)
}

/// Runs `arrivals` of `workload` through `topology` with every knob of
/// `cfg` applied; under every arrival source a worker also retires after
/// `cfg.idle_timeout` without a request.
///
/// # Errors
///
/// The [`ConfigError`] of the first knob the pair would not honour; then
/// nothing has run.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run, ArrivalSpec, RunConfig, TopologySpec};
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("DFS").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7).with_invocations(40);
/// let classes = TopologySpec::Classes(2.try_into().unwrap());
/// let result = run(&workload, &cfg, ArrivalSpec::ClosedLoop, classes).unwrap();
/// assert_eq!(result.latencies_us.len(), 40);
/// ```
pub fn run(
    workload: &dyn Workload,
    cfg: &RunConfig,
    arrivals: ArrivalSpec<'_>,
    topology: TopologySpec,
) -> Result<RunResult, ConfigError> {
    validate(workload, cfg, topology)?;
    let window = match arrivals {
        ArrivalSpec::ClosedLoop => 0,
        ArrivalSpec::Trace(trace) => trace.len(),
    };
    let mut session = Session::new(workload, *cfg, cfg.invocations as usize + window, None);
    let shared = || Deployment::shared(workload, cfg);
    let mut gap = cfg.request_gap;
    let mut topo = match topology {
        TopologySpec::Single => Topology::new(vec![shared()], 1, 1, Routing::Single),
        TopologySpec::Fleet { workers, explorers } => {
            gap = SimDuration::from_micros((gap.as_micros() / u64::from(workers.get())).max(1));
            let routing = Routing::RoundRobin {
                explorers: explorers as usize,
            };
            Topology::new(vec![shared()], 1, workers.get(), routing)
        }
        TopologySpec::Classes(classes) => {
            let deps = (0..classes.get())
                .map(|k| {
                    let label = format!("{}-class{k}", workload.name());
                    Deployment::new(workload, cfg, label, &format!("-c{k}"))
                })
                .collect();
            Topology::new(deps, 1, 1, Routing::ByClass)
        }
        TopologySpec::Cluster => Topology::cluster(shared(), cfg.cluster, workload.name()),
    };
    let history = Arrivals::closed_loop(cfg.invocations, gap);
    engine::run(&mut session, &mut topo, history);
    if let ArrivalSpec::Trace(trace) = arrivals {
        // The window keeps what the deployment learned (pool, chains,
        // cache contents, θ) and reports only its own counters; the
        // history's workers are gone (the window is a fresh 15 minutes
        // much later).
        session.reset_measurements();
        topo.reset_measurements();
        let (first, iter) = (u64::from(cfg.invocations), trace.arrivals().iter().copied());
        engine::run(&mut session, &mut topo, Arrivals::Sorted { first, iter });
    }
    Ok(session.finish(&mut topo))
}
