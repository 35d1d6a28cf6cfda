//! The one sweep harness every grid and ablation runs through, and the
//! field lists every output is written from.
//!
//! - [`sweep`]: a work-stealing pool over a task list that hands results
//!   back **in task order**, whatever order the threads finished in, so
//!   every CSV row order is a function of the task list alone;
//! - [`Ablation`]: benchmarks × one swept axis (eviction rate, node
//!   count, …) × an arm list, with paired seeds. The seed of a cell is
//!   derived from its benchmark and axis value only — the seed function
//!   never sees the arm — so cells that differ only in arm replay the
//!   same inputs, the paired comparison of §5.1;
//! - [`Field`] lists: a row is a list of `(name, Value)`, and
//!   [`fields_csv`] and [`fields_table`] write a row list as CSV and as a
//!   printed table headed by the same names.
//!
//! A paper table or figure implements [`Rows`], one list per CSV line.
//! An ablation module is an arm list, a closure that builds and runs one
//! cell's `RunConfig`, its two column lists ([`Columns`]) and the
//! headline claims it makes from the resulting [`Ablation`]. The lists
//! drive every output: the CSV ([`Ablation::to_csv`]), the `BENCH_*.json`
//! arms ([`Ablation::bench_report`]) and the printed table
//! ([`fields_table`] of [`Ablation::arm_rows`]).

use crate::bench_report::BenchReport;
use crate::fig45::{FIG4_BENCHMARKS, FIG5_BENCHMARKS};
use crate::ExperimentContext;
use pronghorn_metrics::Table;
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

/// One output value: a CSV cell, a `BENCH_*.json` arm value or a
/// printed-table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned count.
    Uint(u64),
    /// A float at a fixed number of decimals. A non-finite value is the
    /// empty CSV field and JSON `null`: the cell never exercised the path.
    Float(f64, usize),
    /// A static label.
    Str(&'static str),
    /// An owned label (a benchmark name, a configuration).
    Label(String),
    /// A pre-rendered JSON value (a nested array or object). It has no
    /// plain-text form, so the printed table leaves it out.
    Raw(String),
}

impl Value {
    /// The plain-text form: the CSV cell and the printed-table cell.
    pub fn text(&self) -> String {
        match self {
            Value::Uint(v) => v.to_string(),
            Value::Float(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Value::Float(..) => String::new(),
            Value::Str(s) => (*s).to_string(),
            Value::Label(s) | Value::Raw(s) => s.clone(),
        }
    }

    /// The JSON form.
    pub fn json(&self) -> String {
        match self {
            Value::Float(v, _) if !v.is_finite() => "null".to_string(),
            Value::Str(_) | Value::Label(_) => format!("\"{}\"", self.text()),
            _ => self.text(),
        }
    }
}

/// A named value: a CSV column or a `BENCH_*.json` arm key.
pub type Field = (&'static str, Value);

/// The two column lists of an ablation, implemented by its arm type.
///
/// Every metric is named once, in one of the lists:
/// - [`Columns::cell`], the per-cell list, is one CSV row after the
///   workload, axis and arm columns;
/// - [`Columns::pooled`], the per-arm list built from the pooled cells of
///   one arm, is one `BENCH_*.json` arm entry and one printed-table row,
///   after the arm's axis value (with [`Columns::PER_AXIS`]) and label.
pub trait Columns<R>: Copy + PartialEq + Sized {
    /// Heading of the swept-axis column; `None` leaves the axis out.
    const AXIS: Option<&'static str>;
    /// Heading of the arm column, and key of the arm label.
    const ARM: &'static str;
    /// Whether an arm pools the cells of one axis value (one routing at
    /// one node count) rather than those of every axis value.
    const PER_AXIS: bool = false;

    /// The arm's label.
    fn arm_label(self) -> &'static str;

    /// The per-cell list.
    fn cell(ablation: &Ablation<Self, R>, cell: &Cell<Self, R>) -> Vec<Field>;

    /// The per-arm list over `cells`, the non-empty set of cells run
    /// under `arm` (at one axis value, with [`Columns::PER_AXIS`]).
    fn pooled(ablation: &Ablation<Self, R>, arm: Self, cells: &[&Cell<Self, R>]) -> Vec<Field>;
}

/// A paper table or figure as one row list: its CSV and its printed
/// table show the same rows under the same keys.
pub trait Rows {
    /// One list per CSV line.
    fn rows(&self) -> Vec<Vec<Field>>;

    /// The printed form: a title, [`fields_table`] of the rows (Figure 1
    /// plots them instead) and any headline sentence.
    fn render(&self) -> String;

    /// CSV form: [`fields_csv`] of the rows.
    fn to_csv(&self) -> String {
        fields_csv(&self.rows())
    }
}

/// Lists as CSV headed by their keys: every value, raw ones included, in
/// the order the rows give the keys. Empty when there is no row.
pub fn fields_csv(rows: &[Vec<Field>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    fields_grid(rows, |_| true).to_csv()
}

/// Lists as a printed table headed by their keys. Raw (nested) values
/// stay in the JSON; a key a list lacks is a blank cell.
pub fn fields_table(rows: &[Vec<Field>]) -> String {
    fields_grid(rows, |value| !matches!(value, Value::Raw(_))).render()
}

/// The one table behind [`fields_csv`] and [`fields_table`]: a column per
/// key whose value `keep` accepts, in first-seen order.
fn fields_grid(rows: &[Vec<Field>], keep: fn(&Value) -> bool) -> Table {
    let mut keys: Vec<&str> = Vec::new();
    for (key, value) in rows.iter().flatten() {
        if keep(value) && !keys.contains(key) {
            keys.push(key);
        }
    }
    let mut table = Table::new(keys.clone());
    for row in rows {
        let cell = |key: &str| lookup(row, key).map(Value::text).unwrap_or_default();
        table.row(keys.iter().map(|key| cell(key)).collect());
    }
    table
}

/// The value of `key` in a list, if the list has it.
pub fn lookup<'a>(fields: &'a [Field], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
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

    /// Benchmarks where `win` holds, as `(wins, total)`. A benchmark for
    /// which `win` gives `None` (a cell missing, or a path never taken)
    /// is left out of both counts.
    pub fn tally(&self, win: impl Fn(&str) -> Option<bool>) -> (usize, usize) {
        let verdicts: Vec<bool> = self.workloads().iter().filter_map(|w| win(w)).collect();
        (verdicts.iter().filter(|&&won| won).count(), verdicts.len())
    }

    /// Distinct arms present, in cell order.
    pub fn arms(&self) -> Vec<A> {
        let mut arms = Vec::new();
        for cell in &self.cells {
            if !arms.contains(&cell.arm) {
                arms.push(cell.arm);
            }
        }
        arms
    }
}

impl<A: Columns<R>, R> Ablation<A, R> {
    /// CSV form: one row per cell, in workload × axis × arm order, so
    /// same-seed reruns write the same bytes. Empty when no cell ran.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for workload in self.workloads() {
            for axis in self.axes() {
                for arm in self.arms() {
                    let Some(cell) = self.cell(&workload, axis, arm) else {
                        continue;
                    };
                    let mut row = vec![("workload", Value::Label(workload.clone()))];
                    row.extend(A::AXIS.map(|key| (key, Value::Uint(u64::from(axis)))));
                    row.push((A::ARM, Value::Str(arm.arm_label())));
                    row.extend(A::cell(self, cell));
                    rows.push(row);
                }
            }
        }
        fields_csv(&rows)
    }

    /// The per-arm lists, each led by its arm's axis value (with
    /// [`Columns::PER_AXIS`]) and label: axis values ascending, then arms
    /// in cell order.
    pub fn arm_rows(&self) -> Vec<Vec<Field>> {
        let groups: Vec<Option<u32>> = if A::PER_AXIS {
            self.axes().into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        let mut rows = Vec::new();
        for axis in groups {
            for arm in self.arms() {
                let cells: Vec<&Cell<A, R>> = self
                    .arm_cells(arm)
                    .filter(|c| axis.is_none_or(|a| c.axis == a))
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                let mut row = Vec::new();
                if let (Some(axis), Some(key)) = (axis, A::AXIS) {
                    row.push((key, Value::Uint(u64::from(axis))));
                }
                row.push((A::ARM, Value::Str(arm.arm_label())));
                row.extend(A::pooled(self, arm, &cells));
                rows.push(row);
            }
        }
        rows
    }

    /// A `BENCH_<name>.json` report with one arm entry per per-arm list;
    /// the caller adds the `config` entries and any trailing sections.
    pub fn bench_report(&self, name: &'static str) -> BenchReport {
        let mut report = BenchReport::new(name);
        for row in self.arm_rows() {
            report.arm(&row);
        }
        report
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        assert_eq!(Value::Float(1.23456, 3).text(), "1.235");
        assert_eq!(Value::Float(f64::NAN, 3).text(), "");
        assert_eq!(Value::Float(f64::INFINITY, 3).text(), "");
        assert_eq!(Value::Float(f64::NAN, 3).json(), "null");
        assert_eq!(Value::Float(0.5, 6).json(), "0.500000");
        assert_eq!(Value::Str("eager").json(), "\"eager\"");
        assert_eq!(Value::Str("eager").text(), "eager");
        assert_eq!(Value::Label("DFS".into()).json(), "\"DFS\"");
        assert_eq!(Value::Label("a, b".into()).text(), "a, b");
    }

    /// The count under `key` in a list.
    ///
    /// # Panics
    ///
    /// Panics if the list has no count under `key`.
    pub(crate) fn uint(fields: &[Field], key: &str) -> u64 {
        match lookup(fields, key) {
            Some(Value::Uint(n)) => *n,
            other => panic!("no count under {key}: {other:?}"),
        }
    }

    // Arms 'a' and 'b'; `pooled` gives arm 'a' alone a nested value
    // and arm 'b' alone an extra key.
    impl Columns<u64> for char {
        const AXIS: Option<&'static str> = Some("rate");
        const ARM: &'static str = "arm";
        fn arm_label(self) -> &'static str {
            if self == 'a' {
                "a"
            } else {
                "b"
            }
        }
        fn cell(_: &Ablation<char, u64>, cell: &Cell<char, u64>) -> Vec<Field> {
            vec![("n", Value::Uint(cell.result))]
        }
        fn pooled(_: &Ablation<char, u64>, arm: char, cells: &[&Cell<char, u64>]) -> Vec<Field> {
            let total = cells.iter().map(|c| c.result).sum();
            let mut fields = vec![("total", Value::Uint(total))];
            if arm == 'a' {
                fields.push(("nested", Value::Raw("[1]".into())));
            } else {
                fields.push(("mean", Value::Float(f64::NAN, 3)));
            }
            fields
        }
    }

    #[test]
    fn column_lists_drive_csv_json_and_table() {
        let ctx = ExperimentContext::quick();
        let ablation = Ablation::run(
            &ctx,
            &["Hash", "DFS"],
            &[4, 1],
            &['a', 'b'],
            |_, _| 0,
            |_, axis, arm, _| u64::from(axis) * 10 + u64::from(arm == 'b'),
        );
        assert_eq!(ablation.arms(), vec!['a', 'b']);
        assert_eq!(
            ablation.to_csv(),
            "workload,rate,arm,n\nDFS,1,a,10\nDFS,1,b,11\nDFS,4,a,40\nDFS,4,b,41\n\
             Hash,1,a,10\nHash,1,b,11\nHash,4,a,40\nHash,4,b,41\n"
        );
        let rows = ablation.arm_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(lookup(&rows[0], "arm"), Some(&Value::Str("a")));
        assert_eq!(
            lookup(&rows[1], "total"),
            Some(&Value::Uint(2 * 11 + 2 * 41))
        );
        assert_eq!(lookup(&rows[0], "rate"), None, "arms pool every axis");
        let json = ablation.bench_report("t").render();
        assert!(json.contains("{\"arm\": \"a\", \"total\": 100, \"nested\": [1]},"));
        assert!(json.contains("{\"arm\": \"b\", \"total\": 104, \"mean\": null}\n"));
        let table = fields_table(&ablation.arm_rows());
        let mut lines = table.lines();
        assert_eq!(
            lines.next().unwrap().split_whitespace().collect::<Vec<_>>(),
            ["arm", "total", "mean"]
        );
        assert_eq!(
            lines.nth(1).unwrap().split_whitespace().collect::<Vec<_>>(),
            ["a", "100"]
        );
        assert!(!table.contains("nested"));
    }
}
