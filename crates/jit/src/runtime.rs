//! The runtime: ties profiles, method states, and the compile queue into an
//! executable process.
//!
//! [`Runtime::execute`] is the heart of the simulator. For each request it:
//!
//! 1. charges lazy initialization if this is the first request a *cold*
//!    runtime serves;
//! 2. executes each method's work units at its current tier's cost;
//! 3. rolls speculation dice for optimized methods (novel inputs can
//!    deoptimize them — Observation #3);
//! 4. enqueues tier promotions whose thresholds were crossed, subject to
//!    code-cache capacity;
//! 5. advances the background compiler (or pays inline tracing pauses) and
//!    charges CPU interference while compilation is in flight.
//!
//! All stochastic draws come from the caller-provided RNG, so a worker's
//! execution is exactly reproducible from its RNG stream.

use crate::compile::CompileQueue;
use crate::method::{MethodState, Tier};
use crate::profile::{MethodProfile, RuntimeKind, RuntimeProfile};
use crate::request::{ExecutionBreakdown, RequestWork};
use pronghorn_checkpoint::cost::gaussian;
use pronghorn_sim::SimDuration;
use rand::Rng;

/// A simulated JIT language runtime hosting one serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct Runtime {
    pub(crate) profile: RuntimeProfile,
    pub(crate) method_profiles: Vec<MethodProfile>,
    pub(crate) methods: Vec<MethodState>,
    pub(crate) queue: CompileQueue,
    pub(crate) code_cache_used: u64,
    pub(crate) requests_executed: u64,
    pub(crate) lazy_initialized: bool,
    pub(crate) state_version: u64,
}

/// Samples `mean * (1 + N(0,1) * rel)`, floored at 20% of the mean.
fn jittered<R: Rng + ?Sized>(rng: &mut R, mean: f64, rel: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    (mean * (1.0 + gaussian(rng) * rel)).max(mean * 0.2)
}

impl Runtime {
    /// Boots a cold runtime, returning it and the boot cost (process spawn
    /// plus interpreter initialization).
    ///
    /// The first request this runtime executes will additionally pay the
    /// profile's lazy-initialization cost.
    pub fn cold_start<R: Rng + ?Sized>(
        profile: RuntimeProfile,
        method_profiles: Vec<MethodProfile>,
        rng: &mut R,
    ) -> (Self, SimDuration) {
        let init = jittered(rng, profile.cold_init_us, profile.init_jitter_rel);
        let methods = method_profiles.iter().map(|_| MethodState::new()).collect();
        (
            Runtime {
                profile,
                method_profiles,
                methods,
                queue: CompileQueue::new(),
                code_cache_used: 0,
                requests_executed: 0,
                lazy_initialized: false,
                state_version: 0,
            },
            SimDuration::from_micros_f64(init),
        )
    }

    /// The runtime family.
    pub fn kind(&self) -> RuntimeKind {
        self.profile.kind
    }

    /// The runtime profile.
    pub fn profile(&self) -> &RuntimeProfile {
        &self.profile
    }

    /// Total requests this runtime *lineage* has executed — survives
    /// checkpoint/restore, which is exactly what makes it the policy's
    /// request-number coordinate.
    pub fn requests_executed(&self) -> u64 {
        self.requests_executed
    }

    /// Whether lazy initialization has already been paid.
    pub fn lazy_initialized(&self) -> bool {
        self.lazy_initialized
    }

    /// Per-method dynamic states.
    pub fn method_states(&self) -> &[MethodState] {
        &self.methods
    }

    /// Per-method static profiles.
    pub fn method_profiles(&self) -> &[MethodProfile] {
        &self.method_profiles
    }

    /// Bytes of machine code currently installed.
    pub fn code_cache_used(&self) -> u64 {
        self.code_cache_used
    }

    /// Monotonic counter bumped on every checkpoint-visible mutation
    /// (request execution, tier promotions, deoptimizations, code-cache
    /// installs, compile-queue changes).
    ///
    /// Two observations of one runtime with the same version have
    /// byte-identical encoded state; two runtime instances may share a
    /// version with different state. The counter is part of the encoded
    /// state, so it travels through a checkpoint and restore.
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    /// Number of methods at the given tier.
    pub fn count_at_tier(&self, tier: Tier) -> usize {
        self.methods.iter().filter(|m| m.tier == tier).count()
    }

    /// The snapshot pages this request would touch, as ascending page
    /// indices into a `page_count`-page image of this runtime.
    ///
    /// This is the deterministic access-trace hook for page-granular lazy
    /// restore: a pure function of the runtime's checkpoint-visible state
    /// and the request's work — it consumes no RNG and mutates nothing,
    /// so the same seed always produces the same fault sequence. The
    /// model mirrors how a restored image is touched:
    ///
    /// - a handful of **base-region** pages (runtime text, never-written
    ///   data) are always touched, scaling gently with image size;
    /// - each worked method touches **heap pages** hashed from its index,
    ///   more of them at higher tiers (compiled code + profiling data
    ///   occupy more of the image);
    /// - the request's payload size selects a couple of **input-buffer**
    ///   pages from a quantized size bucket.
    pub fn page_access_trace(&self, work: &RequestWork, page_count: u32) -> Vec<u32> {
        use pronghorn_sim::hash::{fnv1a, mix64};
        if page_count == 0 {
            return Vec::new();
        }
        let base_pages = (page_count / 4).max(1).min(page_count);
        let mut touched = std::collections::BTreeSet::new();
        let always = base_pages.min(4 + page_count / 32).max(1);
        for p in 0..always {
            touched.insert(p);
        }
        let heap_pages = page_count - base_pages;
        if heap_pages > 0 {
            let salt = fnv1a(b"page-trace");
            for entry in &work.entries {
                let spread = match self.methods.get(entry.method).map(|m| m.tier) {
                    Some(Tier::Interpreted) | None => 1u64,
                    Some(Tier::Tier1) => 2,
                    Some(Tier::Tier2) => 3,
                };
                for k in 0..spread {
                    let h = mix64(salt ^ mix64(entry.method as u64) ^ mix64(k));
                    touched.insert(base_pages + (h % u64::from(heap_pages)) as u32);
                }
            }
            // Input buffers: two pages from a quantized size bucket.
            let bucket = (work.size_factor.clamp(0.0, 16.0) * 8.0).round() as u64;
            for k in 0..2u64 {
                let h = mix64(salt ^ mix64(0x1b0f ^ bucket) ^ mix64(k));
                touched.insert(base_pages + (h % u64::from(heap_pages)) as u32);
            }
        }
        touched.into_iter().collect()
    }

    fn installed_bytes(&self, method: usize, tier: Tier) -> u64 {
        let p = &self.method_profiles[method];
        match tier {
            Tier::Interpreted => 0,
            Tier::Tier1 => p.tier1_code_bytes,
            Tier::Tier2 => p.tier2_code_bytes,
        }
    }

    fn install(&mut self, method: usize, tier: Tier) {
        let old = self.installed_bytes(method, self.methods[method].tier);
        let new = self.installed_bytes(method, tier);
        self.code_cache_used = self.code_cache_used - old + new;
        self.methods[method].install(tier);
        self.state_version += 1;
    }

    fn compile_work_us<R: Rng + ?Sized>(&self, rng: &mut R, method: usize, tier: Tier) -> f64 {
        let kb = self.installed_bytes(method, tier) as f64 / 1024.0;
        jittered(rng, kb * self.profile.compile_us_per_code_kb, 0.25)
    }

    /// Executes one request, mutating JIT state and returning the latency
    /// breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `work` references a method index outside this runtime's
    /// method table — a workload/runtime wiring bug, not a runtime
    /// condition.
    pub fn execute<R: Rng + ?Sized>(
        &mut self,
        work: &RequestWork,
        rng: &mut R,
    ) -> ExecutionBreakdown {
        for entry in &work.entries {
            assert!(
                entry.method < self.methods.len(),
                "request references method {} but runtime has {}",
                entry.method,
                self.methods.len()
            );
        }

        let mut breakdown = ExecutionBreakdown {
            io_us: work.io_us,
            overhead_us: jittered(rng, self.profile.request_overhead_us, 0.10),
            ..ExecutionBreakdown::default()
        };

        // 1. Lazy initialization on the first request of a cold runtime.
        if !self.lazy_initialized {
            breakdown.lazy_init_us =
                jittered(rng, self.profile.lazy_init_us, self.profile.init_jitter_rel);
            self.lazy_initialized = true;
        }

        // 2. Execute method work at current tiers; advance profile counters.
        for entry in &work.entries {
            let tier = self.methods[entry.method].tier;
            let prof = &self.method_profiles[entry.method];
            let discount = match tier {
                Tier::Interpreted => 1.0,
                Tier::Tier1 => 1.0 / prof.tier1_speedup,
                Tier::Tier2 => 1.0 / prof.tier2_speedup,
            };
            breakdown.compute_us += entry.units * work.us_per_unit * discount;
            self.methods[entry.method].invocations += entry.calls;
        }

        // 3. Speculation checks for optimized methods touched this request.
        for entry in &work.entries {
            let idx = entry.method;
            if self.methods[idx].tier != Tier::Tier2 {
                continue;
            }
            let spec = self.method_profiles[idx].speculation;
            // Each recompilation covers more paths, so speculation failures
            // become rarer after every deopt round (§2: re-optimized code
            // "cover[s] more code paths").
            let robustness = 0.35f64.powi(self.methods[idx].deopt_rounds.min(12) as i32);
            let p = self.profile.deopt_prob * spec * (0.25 + 0.75 * work.novelty) * robustness;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                let old = self.installed_bytes(idx, self.methods[idx].tier);
                self.code_cache_used -= old;
                self.methods[idx].deoptimize(self.profile.max_deopt_rounds);
                self.queue.cancel_method(idx as u32);
                self.state_version += 1;
                breakdown.deopt_pause_us += jittered(rng, self.profile.deopt_pause_us, 0.3);
            }
        }

        // 4. Tier promotions whose thresholds were crossed.
        for entry in &work.entries {
            let idx = entry.method;
            let pending = self.methods[idx]
                .pending_promotion(self.profile.tier1_threshold, self.profile.tier2_threshold);
            let Some(tier) = pending else { continue };
            // Code-cache admission: skip compilation if the new code would
            // not fit (§2: "code cache space availability").
            let old = self.installed_bytes(idx, self.methods[idx].tier);
            let new = self.installed_bytes(idx, tier);
            if self.code_cache_used - old + new > self.profile.code_cache_bytes {
                continue;
            }
            let work_us = self.compile_work_us(rng, idx, tier);
            if self.profile.background_compile {
                self.methods[idx].inflight = Some(tier);
                self.queue.enqueue(idx as u32, tier, work_us);
                self.state_version += 1;
            } else {
                // Tracing JIT: the request pauses while the trace compiles.
                breakdown.compile_pause_us += work_us;
                self.install(idx, tier);
            }
        }

        // 5. Background compiler progress and CPU interference.
        if self.profile.background_compile && self.queue.is_busy() {
            breakdown.interference_us =
                (breakdown.compute_us + breakdown.overhead_us) * self.profile.compile_interference;
            let budget = jittered(rng, self.profile.compile_us_per_request, 0.25);
            for (method, tier) in self.queue.advance(budget) {
                let idx = method as usize;
                // Re-check capacity at install time: other methods may have
                // filled the cache since this job was admitted. A compile
                // that no longer fits is discarded, as real code caches do.
                let old = self.installed_bytes(idx, self.methods[idx].tier);
                let new = self.installed_bytes(idx, tier);
                if self.code_cache_used - old + new > self.profile.code_cache_bytes {
                    self.methods[idx].inflight = None;
                    self.state_version += 1;
                    continue;
                }
                self.install(idx, tier);
            }
        }

        // Invocation counters and the lineage request count advanced, so
        // the encoded state is guaranteed different from before this call.
        self.requests_executed += 1;
        self.state_version += 1;
        breakdown
    }

    /// Runs `n` identical requests, returning total latencies — a test and
    /// calibration convenience.
    pub fn execute_n<R: Rng + ?Sized>(
        &mut self,
        work: &RequestWork,
        n: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        (0..n).map(|_| self.execute(work, rng).total_us()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MethodWork;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn simple_methods() -> Vec<MethodProfile> {
        vec![
            MethodProfile::new("hot")
                .calls_per_request(10.0)
                .tier_speedups(3.0, 12.0),
            MethodProfile::new("warm")
                .calls_per_request(1.0)
                .tier_speedups(2.0, 6.0),
        ]
    }

    fn work() -> RequestWork {
        RequestWork::new(vec![
            MethodWork {
                method: 0,
                units: 2_000.0,
                calls: 10.0,
            },
            MethodWork {
                method: 1,
                units: 1_000.0,
                calls: 1.0,
            },
        ])
    }

    #[test]
    fn cold_start_charges_init() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (rt, init) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        assert!(init > SimDuration::from_millis(100));
        assert!(!rt.lazy_initialized());
        assert_eq!(rt.requests_executed(), 0);
    }

    #[test]
    fn first_request_pays_lazy_init_once() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let first = rt.execute(&work(), &mut rng);
        assert!(first.lazy_init_us > 0.0);
        let second = rt.execute(&work(), &mut rng);
        assert_eq!(second.lazy_init_us, 0.0);
        assert!(first.total_us() > second.total_us());
    }

    #[test]
    fn warm_runtime_is_much_faster_than_cold() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let lat = rt.execute_n(&work(), 20_000, &mut rng);
        let early: f64 = lat[1..21].iter().sum::<f64>() / 20.0;
        let late: f64 = lat[lat.len() - 20..].iter().sum::<f64>() / 20.0;
        // Observation #1: runtime optimizations are highly effective.
        assert!(
            late < early * 0.45,
            "expected ≥55% reduction, early={early} late={late}"
        );
    }

    #[test]
    fn hot_methods_reach_tier2_eventually() {
        let mut rng = SmallRng::seed_from_u64(4);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        rt.execute_n(&work(), 20_000, &mut rng);
        assert!(rt.count_at_tier(Tier::Tier2) >= 1);
        assert!(rt.code_cache_used() > 0);
    }

    #[test]
    fn page_trace_is_deterministic_and_sorted() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let a = rt.page_access_trace(&work(), 48);
        let b = rt.page_access_trace(&work(), 48);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{a:?}");
        assert!(a.iter().all(|&p| p < 48));
        assert!(!a.is_empty());
        // A small working set: well below the full image.
        assert!(a.len() < 48, "{a:?}");
        assert!(rt.page_access_trace(&work(), 0).is_empty());
    }

    #[test]
    fn page_trace_grows_with_tier_promotions() {
        let mut rng = SmallRng::seed_from_u64(12);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let cold = rt.page_access_trace(&work(), 256);
        rt.execute_n(&work(), 20_000, &mut rng);
        let hot = rt.page_access_trace(&work(), 256);
        // Promoted methods spread over more heap pages.
        assert!(hot.len() >= cold.len(), "cold {cold:?} hot {hot:?}");
        assert_ne!(cold, hot);
    }

    #[test]
    fn convergence_takes_hundreds_of_requests() {
        // Observation #2: the second method (1 call/request) cannot reach
        // tier 1 before request ~250 on the JVM profile.
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        rt.execute_n(&work(), 200, &mut rng);
        assert_eq!(rt.method_states()[1].tier, Tier::Interpreted);
        rt.execute_n(&work(), 2_000, &mut rng);
        assert!(rt.method_states()[1].tier > Tier::Interpreted);
    }

    #[test]
    fn pypy_pauses_inline_for_tracing() {
        let mut rng = SmallRng::seed_from_u64(6);
        let methods = vec![MethodProfile::new("loop").calls_per_request(50.0)];
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::pypy(), methods, &mut rng);
        let w = RequestWork::new(vec![MethodWork {
            method: 0,
            units: 3_000.0,
            calls: 50.0,
        }]);
        let mut saw_pause = false;
        for _ in 0..200 {
            let b = rt.execute(&w, &mut rng);
            if b.compile_pause_us > 0.0 {
                saw_pause = true;
            }
            assert_eq!(b.interference_us, 0.0, "tracing JIT has no bg threads");
        }
        assert!(saw_pause, "tracing pause never observed");
        assert!(rt.count_at_tier(Tier::Interpreted) == 0);
    }

    #[test]
    fn jvm_requests_see_interference_while_compiling() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let mut saw_interference = false;
        for _ in 0..2_000 {
            if rt.execute(&work(), &mut rng).interference_us > 0.0 {
                saw_interference = true;
                break;
            }
        }
        assert!(saw_interference);
    }

    #[test]
    fn novelty_induces_deopts() {
        let mut rng = SmallRng::seed_from_u64(8);
        let methods = vec![MethodProfile::new("spec")
            .calls_per_request(100.0)
            .speculation(1.0)];
        let mut profile = RuntimeProfile::jvm();
        profile.deopt_prob = 0.25;
        profile.tier1_threshold = 10;
        profile.tier2_threshold = 50;
        let (mut rt, _) = Runtime::cold_start(profile, methods, &mut rng);
        let w = RequestWork::new(vec![MethodWork {
            method: 0,
            units: 100.0,
            calls: 100.0,
        }])
        .novelty(1.0);
        let mut saw_deopt = false;
        for _ in 0..3_000 {
            if rt.execute(&w, &mut rng).deopt_pause_us > 0.0 {
                saw_deopt = true;
                break;
            }
        }
        assert!(saw_deopt);
        assert!(rt.method_states()[0].deopt_rounds >= 1);
    }

    #[test]
    fn repeated_deopts_bar_tier2_permanently() {
        let mut rng = SmallRng::seed_from_u64(9);
        let methods = vec![MethodProfile::new("spec")
            .calls_per_request(100.0)
            .speculation(1.0)];
        let mut profile = RuntimeProfile::jvm();
        profile.deopt_prob = 0.5;
        profile.tier1_threshold = 5;
        profile.tier2_threshold = 20;
        profile.max_deopt_rounds = 2;
        let (mut rt, _) = Runtime::cold_start(profile, methods, &mut rng);
        let w = RequestWork::new(vec![MethodWork {
            method: 0,
            units: 100.0,
            calls: 100.0,
        }])
        .novelty(1.0);
        rt.execute_n(&w, 5_000, &mut rng);
        let m = &rt.method_states()[0];
        assert!(m.barred_from_tier2);
        assert!(m.tier <= Tier::Tier1);
    }

    #[test]
    fn tiny_code_cache_blocks_compilation() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut profile = RuntimeProfile::jvm();
        profile.code_cache_bytes = 1; // nothing fits
        let (mut rt, _) = Runtime::cold_start(profile, simple_methods(), &mut rng);
        rt.execute_n(&work(), 3_000, &mut rng);
        assert_eq!(rt.count_at_tier(Tier::Interpreted), 2);
        assert_eq!(rt.code_cache_used(), 0);
    }

    #[test]
    fn identical_seeds_reproduce_execution() {
        let run = || {
            let mut rng = SmallRng::seed_from_u64(11);
            let (mut rt, _) =
                Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
            rt.execute_n(&work(), 500, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "references method")]
    fn out_of_range_method_panics() {
        let mut rng = SmallRng::seed_from_u64(12);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let w = RequestWork::new(vec![MethodWork {
            method: 9,
            units: 1.0,
            calls: 1.0,
        }]);
        rt.execute(&w, &mut rng);
    }

    #[test]
    fn io_time_is_passed_through_unoptimized() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), simple_methods(), &mut rng);
        let w = work().io_us(250_000.0);
        rt.execute_n(&w, 20_000, &mut rng);
        let b = rt.execute(&w, &mut rng);
        // IO is not JIT-able: it dominates and stays constant (§5.2's
        // Uploader effect).
        assert_eq!(b.io_us, 250_000.0);
        assert!(b.io_us > b.compute_us * 10.0);
    }
}
