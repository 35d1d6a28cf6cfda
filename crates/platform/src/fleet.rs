//! Multi-worker fleet simulation — §5.3's amortization argument.
//!
//! "Checkpointing overheads can be further mitigated when serverless
//! applications are run in a distributed context ... Only a nonempty
//! subset of containers running a given application need to be exploring
//! in order to realize performance benefits — the remaining containers can
//! simply restore from the best snapshots found so far. Exploration
//! overheads can therefore be amortized over many containers, with the
//! degree of amortization chosen by the cloud provider."
//!
//! [`run_fleet`] drives `fleet_size` concurrent workers of one function
//! against a shared Orchestrator (one Database, one Object Store — exactly
//! the sharing topology of Figure 2) through the deployment engine
//! ([`crate::engine`]): requests arrive in an open loop and are dispatched
//! round-robin over the worker slots; each worker follows the policy
//! independently, but only the configured number of *explorer* workers
//! take checkpoints — the amortization knob.

use crate::config::RunConfig;
use crate::engine::{self, Arrivals, Routing, Topology};
use crate::result::RunResult;
use crate::runner::{Deployment, Session};
use pronghorn_sim::SimDuration;
use pronghorn_workloads::Workload;

/// Fleet-specific configuration on top of [`RunConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Concurrent workers serving the function.
    pub fleet_size: usize,
    /// How many of them explore (take checkpoints); the rest only restore
    /// from the best snapshots found so far. `0` disables checkpointing
    /// entirely.
    pub explorers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            fleet_size: 4,
            explorers: 1,
        }
    }
}

/// Runs an open-loop fleet: `cfg.invocations` arrivals spaced by
/// `cfg.request_gap / fleet_size` (so per-worker load matches the
/// closed-loop runs), dispatched round-robin across `fleet.fleet_size`
/// workers sharing one orchestrator. A worker retires after
/// `cfg.eviction_rate` requests or `cfg.idle_timeout` without one; the
/// restore strategy, delta chains, storage tier and predictive
/// provisioning apply exactly as in the closed loop.
///
/// # Examples
///
/// ```
/// use pronghorn_core::PolicyKind;
/// use pronghorn_platform::{run_fleet, FleetConfig, RunConfig};
/// use pronghorn_workloads::by_name;
///
/// let workload = by_name("DFS").unwrap();
/// let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 7).with_invocations(40);
/// let fleet = FleetConfig { fleet_size: 4, explorers: 1 };
/// let result = run_fleet(&workload, &cfg, &fleet);
/// assert_eq!(result.latencies_us.len(), 40);
/// ```
pub fn run_fleet(workload: &dyn Workload, cfg: &RunConfig, fleet: &FleetConfig) -> RunResult {
    assert!(fleet.fleet_size >= 1, "fleet needs at least one worker");
    let mut session = Session::new(workload, *cfg, cfg.invocations as usize, false);
    let routing = Routing::RoundRobin {
        explorers: fleet.explorers,
    };
    let dep = Deployment::shared(workload, cfg);
    let mut topo = Topology::new(vec![dep], 1, fleet.fleet_size as u32, routing);
    let gap =
        SimDuration::from_micros((cfg.request_gap.as_micros() / fleet.fleet_size as u64).max(1));
    engine::run(
        &mut session,
        &mut topo,
        Arrivals::closed_loop(cfg.invocations, gap, true),
    );
    session.finish(&topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_core::PolicyKind;
    use pronghorn_workloads::{by_name, InputVariance};

    fn cfg(policy: PolicyKind) -> RunConfig {
        RunConfig::paper(policy, 4, 99)
            .with_invocations(240)
            .with_variance(InputVariance::none())
    }

    #[test]
    fn fleet_serves_every_arrival() {
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 4,
            explorers: 1,
        };
        let r = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert_eq!(r.latencies_us.len(), 240);
        assert!(r.checkpoint_ms.len() > 1);
    }

    #[test]
    fn single_worker_fleet_matches_closed_loop_shape() {
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 1,
            explorers: 1,
        };
        let r = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        // Same protocol as the closed loop: one provision per lifetime.
        assert_eq!(r.provisions.len(), 240 / 4);
    }

    #[test]
    fn explorers_knob_bounds_checkpointers() {
        let bench = by_name("DFS").unwrap();
        let none = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 0,
            },
        );
        assert!(none.checkpoint_ms.is_empty());
        // With zero explorers there are never snapshots: every provision is
        // a cold start.
        assert_eq!(none.cold_starts(), none.provisions.len());

        let all = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 4,
            },
        );
        let one = run_fleet(
            &bench,
            &cfg(PolicyKind::RequestCentric),
            &FleetConfig {
                fleet_size: 4,
                explorers: 1,
            },
        );
        assert!(all.checkpoint_ms.len() > one.checkpoint_ms.len());
    }

    #[test]
    fn non_explorers_still_benefit_from_shared_snapshots() {
        // §5.3's amortization: one explorer is enough for the whole fleet
        // to hot-start.
        let bench = by_name("DFS").unwrap();
        let fleet = FleetConfig {
            fleet_size: 4,
            explorers: 1,
        };
        let shared = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert!(
            shared.restores() > shared.provisions.len() / 2,
            "{} restores of {} provisions",
            shared.restores(),
            shared.provisions.len()
        );
        // And it beats a no-checkpoint fleet.
        let cold = run_fleet(&bench, &cfg(PolicyKind::Cold), &fleet);
        assert!(shared.median_us() < cold.median_us());
    }

    #[test]
    fn fleet_runs_are_reproducible() {
        let bench = by_name("Hash").unwrap();
        let fleet = FleetConfig::default();
        let a = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        let b = run_fleet(&bench, &cfg(PolicyKind::RequestCentric), &fleet);
        assert_eq!(a.latencies_us, b.latencies_us);
    }
}
