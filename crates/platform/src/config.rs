//! Run configuration for one benchmark × policy × eviction-rate cell.

use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_cluster::ClusterSpec;
use pronghorn_core::{PolicyConfig, PolicyKind};
use pronghorn_forecast::ProvisionPolicy;
use pronghorn_jit::RuntimeKind;
use pronghorn_restore::RestoreStrategy;
use pronghorn_sim::{KernelKind, SimDuration};
use pronghorn_store::StoragePolicy;
use pronghorn_workloads::InputVariance;

/// Configuration of one experiment cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Master seed for every RNG stream of the run.
    pub seed: u64,
    /// Total invocations (paper: 500 per cell).
    pub invocations: u32,
    /// Worker eviction rate: requests served per worker before eviction
    /// (paper: 1, 4, 20 ≈ a request every hour / 5 min / 1 min).
    pub eviction_rate: u32,
    /// Orchestration policy under test.
    pub policy: PolicyKind,
    /// Input-size noise (§5.1's Gaussian perturbation).
    pub variance: InputVariance,
    /// Virtual gap between consecutive request arrivals in closed-loop
    /// mode; long enough that provisioning and checkpointing stay off the
    /// critical path.
    pub request_gap: SimDuration,
    /// Idle timeout for trace-driven eviction (paper: ~10 minutes).
    pub idle_timeout: SimDuration,
    /// Override for the request-centric policy parameters; `None` derives
    /// the paper's defaults from the runtime kind and eviction rate.
    pub policy_config: Option<PolicyConfig>,
    /// The provider's estimate of the worker lifetime `β`, when it differs
    /// from the true eviction rate — §6's "Lifetime estimation" discussion
    /// (an underestimate checkpoints too early; an overestimate plans
    /// checkpoints that are never reached). `None` = accurate estimate.
    pub beta_estimate: Option<u32>,
    /// Invocation count after which the provider halts further
    /// checkpointing (§5.3: "the cloud provider can stop further
    /// checkpointing after W + 100 invocations"). `None` reproduces the
    /// paper's evaluation, which never stops.
    pub stop_checkpointing_after: Option<u32>,
    /// How restores materialize snapshot memory: eager (the paper's
    /// behaviour, bit-identical to runs predating this knob), lazy
    /// map-on-fault, or REAP-style record & prefetch.
    pub restore: RestoreStrategy,
    /// Whether checkpoints of restored workers persist as page deltas
    /// against the snapshot they were restored from. Disabled by default:
    /// the full-snapshot path stays bit-identical to runs predating this
    /// knob (pinned by `tests/full_invariance.rs`).
    pub delta: DeltaPolicy,
    /// Read by nothing in the workspace: every run drives the timer wheel.
    /// The field and [`Self::with_kernel`] exist only so the `benchmark/`
    /// package builds unchanged, and are removed in the next change to the
    /// benchmark.
    pub kernel: KernelKind,
    /// Proactive provisioning policy: arrival forecasting driving
    /// pre-restores ahead of predicted bursts, running alongside the
    /// reactive checkpoint `policy`. [`ProvisionPolicy::Disabled`] (the
    /// default) schedules nothing and draws nothing — runs are
    /// byte-identical to those predating this knob (pinned by
    /// `tests/full_invariance.rs`).
    pub provision: ProvisionPolicy,
    /// Cluster shape for [`crate::run_cluster`]: node count, per-node
    /// worker capacity, gateway routing and snapshot placement. The
    /// default [`ClusterSpec::single_node`] keeps every single-node
    /// runner's behaviour (and the `nodes = 1` cluster run is pinned
    /// bit-identical to [`crate::run_closed_loop`]).
    pub cluster: ClusterSpec,
    /// Tiered snapshot storage: local-SSD cache, modeled wire
    /// compression, and delta-aware composed-chain prefetch.
    /// [`StoragePolicy::disabled`] (the default) builds no tier and keeps
    /// the flat-store path byte-identical to runs predating this knob
    /// (pinned by `tests/full_invariance.rs`).
    pub storage: StoragePolicy,
}

impl RunConfig {
    /// The paper's §5.1 configuration for a given policy and eviction rate.
    pub fn paper(policy: PolicyKind, eviction_rate: u32, seed: u64) -> Self {
        RunConfig {
            seed,
            invocations: 500,
            eviction_rate: eviction_rate.max(1),
            policy,
            variance: InputVariance::paper(),
            request_gap: SimDuration::from_secs(60),
            idle_timeout: SimDuration::from_secs(600),
            policy_config: None,
            beta_estimate: None,
            stop_checkpointing_after: None,
            restore: RestoreStrategy::Eager,
            delta: DeltaPolicy::Disabled,
            kernel: KernelKind::TimerWheel,
            provision: ProvisionPolicy::Disabled,
            cluster: ClusterSpec::single_node(),
            storage: StoragePolicy::disabled(),
        }
    }

    /// Resolves the request-centric policy configuration: explicit
    /// override, or paper defaults for the runtime (`W` = 100 PyPy / 200
    /// JVM) with `β` equal to the eviction rate.
    pub fn resolve_policy_config(&self, kind: RuntimeKind) -> PolicyConfig {
        let beta = self.beta_estimate.unwrap_or(self.eviction_rate);
        match self.policy_config {
            Some(config) => config.with_beta(beta),
            None => match kind {
                RuntimeKind::PyPy => PolicyConfig::paper_pypy().with_beta(beta),
                RuntimeKind::Jvm => PolicyConfig::paper_jvm().with_beta(beta),
            },
        }
    }

    /// Sets the number of invocations.
    pub fn with_invocations(mut self, invocations: u32) -> Self {
        self.invocations = invocations;
        self
    }

    /// Sets the input variance.
    pub fn with_variance(mut self, variance: InputVariance) -> Self {
        self.variance = variance;
        self
    }

    /// Sets an explicit policy configuration.
    pub fn with_policy_config(mut self, config: PolicyConfig) -> Self {
        self.policy_config = Some(config);
        self
    }

    /// Halts checkpointing after `invocations` requests (the provider's
    /// cost bound; the paper suggests `W + 100`).
    pub fn with_checkpoint_stop(mut self, invocations: u32) -> Self {
        self.stop_checkpointing_after = Some(invocations);
        self
    }

    /// Sets a (possibly wrong) provider estimate of the worker lifetime.
    pub fn with_beta_estimate(mut self, beta: u32) -> Self {
        self.beta_estimate = Some(beta.max(1));
        self
    }

    /// Sets the restore strategy.
    pub fn with_restore(mut self, restore: RestoreStrategy) -> Self {
        self.restore = restore;
        self
    }

    /// Sets the delta checkpointing policy.
    pub fn with_delta(mut self, delta: DeltaPolicy) -> Self {
        self.delta = delta;
        self
    }

    /// Sets [`Self::kernel`], which nothing reads (see there).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the cluster shape for [`crate::run_cluster`].
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Sets the proactive provisioning policy.
    pub fn with_provision(mut self, provision: ProvisionPolicy) -> Self {
        self.provision = provision;
        self
    }

    /// Sets the tiered snapshot storage policy.
    pub fn with_storage(mut self, storage: StoragePolicy) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the keep-alive window the production runner evicts idle
    /// workers after.
    pub fn with_idle_timeout(mut self, timeout: SimDuration) -> Self {
        self.idle_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 7);
        assert_eq!(c.invocations, 500);
        assert_eq!(c.eviction_rate, 4);
        assert_eq!(c.variance, InputVariance::paper());
        assert_eq!(c.restore, RestoreStrategy::Eager);
        assert_eq!(c.delta, DeltaPolicy::Disabled);
        assert_eq!(c.provision, ProvisionPolicy::Disabled);
        assert_eq!(c.cluster, ClusterSpec::single_node());
        let predictive = c.with_provision(ProvisionPolicy::predictive(
            pronghorn_forecast::ForecasterKind::Ewma,
        ));
        assert!(predictive.provision.enabled());
        let clustered = c.with_cluster(ClusterSpec::new(4).with_capacity(2));
        assert_eq!(clustered.cluster.nodes, 4);
        assert_eq!(clustered.cluster.capacity, 2);
        let lazy = c.with_restore(RestoreStrategy::Lazy);
        assert_eq!(lazy.restore, RestoreStrategy::Lazy);
        let delta = c.with_delta(DeltaPolicy::Enabled { max_depth: 4 });
        assert_eq!(delta.delta, DeltaPolicy::Enabled { max_depth: 4 });
        assert_eq!(c.storage, StoragePolicy::disabled());
        assert!(!c.storage.enabled());
        let tiered = c.with_storage(StoragePolicy::disabled().with_cache().with_compression());
        assert!(tiered.storage.enabled());
        assert!(tiered.storage.cache.is_some());
    }

    #[test]
    fn eviction_rate_is_positive() {
        let c = RunConfig::paper(PolicyKind::Cold, 0, 7);
        assert_eq!(c.eviction_rate, 1);
    }

    #[test]
    fn policy_config_derives_w_from_runtime() {
        let c = RunConfig::paper(PolicyKind::RequestCentric, 20, 7);
        assert_eq!(c.resolve_policy_config(RuntimeKind::PyPy).w, 100);
        assert_eq!(c.resolve_policy_config(RuntimeKind::Jvm).w, 200);
        assert_eq!(c.resolve_policy_config(RuntimeKind::Jvm).beta, 20);
    }

    #[test]
    fn explicit_policy_config_wins_but_beta_tracks_eviction() {
        let custom = PolicyConfig::paper_pypy().with_w(50).with_capacity(3);
        let c = RunConfig::paper(PolicyKind::RequestCentric, 4, 7).with_policy_config(custom);
        let resolved = c.resolve_policy_config(RuntimeKind::Jvm);
        assert_eq!(resolved.w, 50);
        assert_eq!(resolved.capacity, 3);
        assert_eq!(resolved.beta, 4);
    }
}
