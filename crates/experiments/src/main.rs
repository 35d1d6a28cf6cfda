//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <command> [--quick] [--seed N] [--invocations N] [--threads N]
//! ```
//!
//! Each command, what it runs and the `results/` files it writes are one
//! entry of `EXPERIMENTS`; the usage text (any bad argument prints it),
//! the dispatch and `all` are read from that list.

#![forbid(unsafe_code)]

use pronghorn_experiments::sweep::Rows;
use pronghorn_experiments::ExperimentContext;
use pronghorn_experiments::{
    ablation, bench_report, cluster_ablation, delta_ablation, fig1, fig45, fig6, fig7,
    provision_ablation, restore_ablation, storage_ablation, summary, table1, table4, table5,
};
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<(String, ExperimentContext, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().ok_or_else(usage)?.clone();
    let quick = args.iter().any(|a| a == "--quick");
    // `--quick` swaps the *baseline* context, so apply it before walking
    // the other flags: that makes parsing order-independent (a trailing
    // `--quick` used to clobber an earlier `--seed`/`--invocations`).
    let mut ctx = if quick {
        ExperimentContext::quick()
    } else {
        ExperimentContext::default()
    };
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => {}
            "--seed" => ctx.seed = parse(flag, value()?)?,
            "--invocations" => ctx.invocations = parse(flag, value()?)?,
            "--threads" => ctx.threads = parse(flag, value()?)?,
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    if ctx.threads == 0 {
        return Err(format!("--threads must be >= 1\n{}", usage()));
    }
    Ok((command, ctx, quick))
}

/// The value of `flag`, or `bad <name>: <value>`.
fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {}: {value}", &flag[2..]))
}

/// One command: its name, what it runs, the `results/` files it writes
/// and how it runs. `run` returns the printed text and each file's
/// contents, in `files` order.
struct Experiment {
    command: &'static str,
    about: &'static str,
    files: &'static [&'static str],
    run: fn(&ExperimentContext, bool) -> (String, Vec<String>),
}

/// A paper table or figure: its printed form and its one CSV.
fn paper(result: impl Rows) -> (String, Vec<String>) {
    (result.render(), vec![result.to_csv()])
}

/// Every command, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        command: "fig1",
        about: "warm-up curves (Figure 1)",
        files: &["fig1.csv"],
        run: |ctx, _| paper(fig1::run(ctx)),
    },
    Experiment {
        command: "table1",
        about: "Java speedups vs request #1 (Table 1)",
        files: &["table1.csv"],
        run: |ctx, _| paper(table1::run(ctx)),
    },
    Experiment {
        command: "fig4",
        about: "Python CDF grid (Figure 4)",
        files: &["fig4.csv"],
        run: |ctx, _| paper(fig45::run_fig4(ctx)),
    },
    Experiment {
        command: "fig5",
        about: "Java CDF grid (Figure 5)",
        files: &["fig5.csv"],
        run: |ctx, _| paper(fig45::run_fig5(ctx)),
    },
    Experiment {
        command: "fig6",
        about: "Azure-like trace replay (Figure 6)",
        files: &["fig6.csv"],
        run: |ctx, _| paper(fig6::run(ctx)),
    },
    Experiment {
        command: "table4",
        about: "convergence + checkpoint/restore overheads (Table 4)",
        files: &["table4.csv"],
        run: |ctx, _| paper(table4::run(ctx)),
    },
    Experiment {
        command: "table5",
        about: "storage/network overheads (Table 5)",
        files: &["table5.csv"],
        run: |ctx, _| paper(table5::run(ctx)),
    },
    Experiment {
        command: "fig7",
        about: "orchestrator overheads (Figure 7)",
        files: &["fig7.csv"],
        run: |ctx, _| paper(fig7::run(ctx)),
    },
    Experiment {
        command: "ablations",
        about: "design-choice ablation study",
        files: &["ablations.csv"],
        run: |ctx, _| paper(ablation::run(ctx)),
    },
    Experiment {
        command: "summary",
        about: "§5.2 headline aggregation (runs the fig4 + fig5 grids)",
        files: &["summary.csv", "BENCH_grid.json"],
        run: |ctx, _| {
            let (f4, f5) = (fig45::run_fig4(ctx), fig45::run_fig5(ctx));
            let both = [&f4.grid, &f5.grid];
            let s = summary::summarize(&both);
            let grids = [("fig4", &f4.grid), ("fig5", &f5.grid)];
            (
                s.render() + &summary::restore_paths(&both),
                vec![s.to_csv(), bench_report::render_json(&grids)],
            )
        },
    },
    Experiment {
        command: "restore-ablation",
        about: "restore strategies: eager vs lazy vs record-prefetch",
        files: &["restore_ablation.csv", "BENCH_restore.json"],
        run: |ctx, _| {
            let r = restore_ablation::run(ctx);
            (r.render(), vec![r.to_csv(), r.bench_json()])
        },
    },
    Experiment {
        command: "delta-ablation",
        about: "checkpoint forms: full snapshots vs delta chains (K=4, K=16)",
        files: &["delta_ablation.csv", "BENCH_delta.json"],
        run: |ctx, _| {
            let r = delta_ablation::run(ctx);
            (r.render(), vec![r.to_csv(), r.bench_json()])
        },
    },
    Experiment {
        command: "cluster-ablation",
        about: "cluster sizes x gateway routing: hash vs load-aware spillover",
        files: &["cluster_ablation.csv", "BENCH_cluster.json"],
        run: |ctx, _| {
            let r = cluster_ablation::run(ctx);
            (r.render(), vec![r.to_csv(), r.bench_json()])
        },
    },
    Experiment {
        command: "provision-ablation",
        about: "provisioning: reactive vs sliding-window/ewma/mpc pre-restore",
        files: &["provision_ablation.csv", "BENCH_provision.json"],
        run: |ctx, quick| {
            let r = provision_ablation::run(ctx, quick);
            (r.render(), vec![r.sweep.to_csv(), r.bench_json()])
        },
    },
    Experiment {
        command: "storage-ablation",
        about: "tiered storage: flat vs SSD cache vs compression vs composed prefetch",
        files: &["storage_ablation.csv", "BENCH_storage.json"],
        run: |ctx, _| {
            let r = storage_ablation::run(ctx);
            (r.render(), vec![r.to_csv(), r.bench_json()])
        },
    },
];

/// The usage text: the flags, then one line per command with the files
/// it writes.
fn usage() -> String {
    let mut out = String::from(
        "usage: experiments <command> [--quick] [--seed N] [--invocations N] [--threads N]\n\ncommands:\n",
    );
    for e in EXPERIMENTS {
        let files = e.files.join(", ");
        out.push_str(&format!("  {:<19} {} -> {files}\n", e.command, e.about));
    }
    out + "  all                 every command above, in order, writing results/"
}

/// Runs one experiment: prints its text, then writes and reports each of
/// its files under `results/`.
fn run(e: &Experiment, ctx: &ExperimentContext, quick: bool) -> Result<(), String> {
    let (text, contents) = (e.run)(ctx, quick);
    assert_eq!(contents.len(), e.files.len(), "one document per file");
    println!("{text}");
    for (name, contents) in e.files.iter().zip(contents) {
        let path = Path::new("results").join(name);
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|err| format!("could not save {name}: {err}"))?;
        println!("[saved {name} -> {}]", path.display());
    }
    Ok(())
}

/// Prints the run banner, then runs `command`, or every experiment for
/// `all`.
fn run_command(command: &str, ctx: &ExperimentContext, quick: bool) -> Result<(), String> {
    println!(
        "[pronghorn experiments: seed={:#x} invocations={} threads={}]",
        ctx.seed,
        ctx.invocations,
        ctx.effective_threads()
    );
    if let Some(reason) = ctx.thread_cap_reason() {
        println!("[{reason}]");
    }
    println!();
    if command != "all" {
        let e = EXPERIMENTS.iter().find(|e| e.command == command);
        let e = e.ok_or_else(|| format!("unknown command: {command}\n{}", usage()))?;
        return run(e, ctx, quick);
    }
    for e in EXPERIMENTS {
        println!("==================== {} ====================", e.command);
        run(e, ctx, quick)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|(command, ctx, quick)| run_command(&command, &ctx, quick)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
