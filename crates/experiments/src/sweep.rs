//! The one sweep harness every grid and ablation runs through.
//!
//! Two pieces:
//!
//! - [`sweep`]: a work-stealing pool over a task list that hands results
//!   back **in task order**, whatever order the threads finished in, so
//!   every CSV row order is a function of the task list alone;
//! - [`Ablation`]: benchmarks × one swept axis (eviction rate, node
//!   count, …) × an arm list, with paired seeds. The seed of a cell is
//!   derived from its benchmark and axis value only — the seed function
//!   never sees the arm — so cells that differ only in arm replay the
//!   same inputs, the paired comparison of §5.1.
//!
//! An ablation module is then an arm list, a closure that builds and
//! runs one cell's `RunConfig`, and the metric extractors that read the
//! resulting [`Ablation`].

use crate::fig45::{FIG4_BENCHMARKS, FIG5_BENCHMARKS};
use crate::ExperimentContext;
use pronghorn_workloads::{by_name, SpecWorkload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run` on every task across [`ExperimentContext::effective_threads`]
/// workers, returning the results in task order.
///
/// A panic in `run` propagates to the caller with its original payload.
pub fn sweep<T, R, F>(ctx: &ExperimentContext, tasks: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ctx.effective_threads())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else {
                            break mine;
                        };
                        mine.push((i, run(task)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The paper's 13 benchmarks (Figure 4's nine Python + Figure 5's four
/// Java), in figure order.
pub fn paper_benchmarks() -> Vec<&'static str> {
    FIG4_BENCHMARKS
        .iter()
        .chain(FIG5_BENCHMARKS.iter())
        .copied()
        .collect()
}

/// Formats a float for CSV; NaN renders as the empty field.
pub fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        String::new()
    }
}

/// One measured cell: a benchmark at one axis value under one arm.
#[derive(Debug, Clone)]
pub struct Cell<A, R> {
    /// Benchmark name.
    pub workload: String,
    /// The swept axis value (eviction rate, node count, …).
    pub axis: u32,
    /// The arm the cell ran under.
    pub arm: A,
    /// The cell's measurements.
    pub result: R,
}

/// A completed benchmarks × axis × arms sweep.
#[derive(Debug, Clone)]
pub struct Ablation<A, R> {
    /// All cells, in task order: benchmark-major, then axis, then arm.
    pub cells: Vec<Cell<A, R>>,
}

impl<A: Copy + PartialEq, R> Ablation<A, R> {
    /// Runs every `benchmarks × axes × arms` cell through [`sweep`].
    /// `seed(bench, axis)` derives the seed every arm of that pair
    /// shares; `run(workload, axis, arm, seed)` builds and runs one cell.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark name is unknown — experiment tables are
    /// static and must fail loudly.
    pub fn run<S, F>(
        ctx: &ExperimentContext,
        benchmarks: &[&str],
        axes: &[u32],
        arms: &[A],
        seed: S,
        run: F,
    ) -> Self
    where
        A: Sync,
        R: Send,
        S: Fn(&str, u32) -> u64 + Sync,
        F: Fn(&SpecWorkload, u32, A, u64) -> R + Sync,
    {
        // Built once per sweep and shared by every worker.
        let workloads: Vec<SpecWorkload> = benchmarks
            .iter()
            .map(|name| by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}")))
            .collect();
        let mut tasks = Vec::new();
        for bench in 0..benchmarks.len() {
            for &axis in axes {
                for &arm in arms {
                    tasks.push((bench, axis, arm));
                }
            }
        }
        let results = sweep(ctx, &tasks, |&(bench, axis, arm)| {
            run(&workloads[bench], axis, arm, seed(benchmarks[bench], axis))
        });
        let cells = tasks
            .iter()
            .zip(results)
            .map(|(&(bench, axis, arm), result)| Cell {
                workload: benchmarks[bench].to_string(),
                axis,
                arm,
                result,
            })
            .collect();
        Ablation { cells }
    }

    /// Finds a cell.
    pub fn cell(&self, workload: &str, axis: u32, arm: A) -> Option<&Cell<A, R>> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.axis == axis && c.arm == arm)
    }

    /// The cells run under `arm`, in task order.
    pub fn arm_cells(&self, arm: A) -> impl Iterator<Item = &Cell<A, R>> {
        self.cells.iter().filter(move |c| c.arm == arm)
    }

    /// Distinct workloads present: paper benchmarks in figure order,
    /// then any others (tests) in cell order.
    pub fn workloads(&self) -> Vec<String> {
        let mut seen: Vec<String> = paper_benchmarks()
            .into_iter()
            .filter(|b| self.cells.iter().any(|c| c.workload == *b))
            .map(str::to_string)
            .collect();
        for cell in &self.cells {
            if !seen.contains(&cell.workload) {
                seen.push(cell.workload.clone());
            }
        }
        seen
    }

    /// Distinct axis values present, ascending.
    pub fn axes(&self) -> Vec<u32> {
        let mut axes: Vec<u32> = self.cells.iter().map(|c| c.axis).collect();
        axes.sort_unstable();
        axes.dedup();
        axes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_task_order() {
        // Task 0 waits (bounded, so a 1-thread host cannot deadlock) for
        // task 1 to finish first: with two workers the completion order
        // is 1 then 0, yet the results must still read 0, 1, 2, 3.
        let ctx = ExperimentContext {
            threads: 2,
            ..ExperimentContext::quick()
        };
        let task1_done = AtomicBool::new(false);
        let results = sweep(&ctx, &[0u32, 1, 2, 3], |&t| {
            if t == 0 {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !task1_done.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            if t == 1 {
                task1_done.store(true, Ordering::Release);
            }
            t * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "cell exploded")]
    fn worker_panics_propagate_with_their_payload() {
        let _ = sweep(&ExperimentContext::quick(), &[1u8, 2], |&t| {
            assert!(t != 2, "cell exploded");
            t
        });
    }

    #[test]
    fn ablation_cells_are_paired_and_ordered() {
        let ctx = ExperimentContext::quick();
        let ablation = Ablation::run(
            &ctx,
            &["Hash", "DFS"],
            &[4, 1],
            &['a', 'b'],
            |bench, axis| ctx.cell_seed(&[bench, &axis.to_string()]),
            |_, _, _, seed| seed,
        );
        let order: Vec<(&str, u32, char)> = ablation
            .cells
            .iter()
            .map(|c| (c.workload.as_str(), c.axis, c.arm))
            .collect();
        assert_eq!(
            order,
            vec![
                ("Hash", 4, 'a'),
                ("Hash", 4, 'b'),
                ("Hash", 1, 'a'),
                ("Hash", 1, 'b'),
                ("DFS", 4, 'a'),
                ("DFS", 4, 'b'),
                ("DFS", 1, 'a'),
                ("DFS", 1, 'b'),
            ]
        );
        // Arms of one (benchmark, axis) share a seed; axes do not.
        let seed = |w, axis, arm| ablation.cell(w, axis, arm).unwrap().result;
        assert_eq!(seed("DFS", 1, 'a'), seed("DFS", 1, 'b'));
        assert_ne!(seed("DFS", 1, 'a'), seed("DFS", 4, 'a'));
        assert_eq!(ablation.workloads(), vec!["DFS", "Hash"]);
        assert_eq!(ablation.axes(), vec![1, 4]);
        assert_eq!(ablation.arm_cells('b').count(), 4);
    }

    #[test]
    fn csv_f64_blanks_non_finite_values() {
        assert_eq!(csv_f64(1.23456), "1.235");
        assert_eq!(csv_f64(f64::NAN), "");
        assert_eq!(csv_f64(f64::INFINITY), "");
    }
}
