//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <command> [--quick] [--seed N] [--invocations N]
//!
//! commands:
//!   fig1     warm-up curves (Figure 1)
//!   table1   Java speedups vs request #1 (Table 1)
//!   fig4     Python CDF grid (Figure 4)
//!   fig5     Java CDF grid (Figure 5)
//!   fig6     Azure-like trace replay (Figure 6)
//!   table4   convergence + checkpoint/restore overheads (Table 4)
//!   table5   storage/network overheads (Table 5)
//!   fig7     orchestrator overheads (Figure 7)
//!   summary  §5.2 headline aggregation (runs fig4 + fig5 grids)
//!   ablations design-choice ablation study
//!   restore-ablation  restore strategies: eager vs lazy vs record-prefetch
//!   delta-ablation    checkpoint forms: full snapshots vs delta chains (K=4, K=16)
//!   cluster-ablation  cluster sizes x gateway routing: hash vs load-aware spillover
//!   provision-ablation  provisioning: reactive vs sliding-window/ewma/mpc pre-restore
//!   storage-ablation  tiered storage: flat vs SSD cache vs compression vs composed prefetch
//!   all      everything above, CSVs written to results/
//! ```

#![forbid(unsafe_code)]

use pronghorn_experiments::render::write_results_file;
use pronghorn_experiments::ExperimentContext;
use pronghorn_experiments::{
    ablation, bench_report, cluster_ablation, delta_ablation, fig1, fig45, fig6, fig7,
    provision_ablation, restore_ablation, storage_ablation, summary, table1, table4, table5,
};
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
        match flag.as_str() {
            "--quick" => {}
            "--seed" => {
                let v = rest.next().ok_or("--seed needs a value")?;
                ctx.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--invocations" => {
                let v = rest.next().ok_or("--invocations needs a value")?;
                ctx.invocations = v.parse().map_err(|_| format!("bad invocations: {v}"))?;
            }
            "--threads" => {
                let v = rest.next().ok_or("--threads needs a value")?;
                let threads: usize = v.parse().map_err(|_| format!("bad threads: {v}"))?;
                if threads == 0 {
                    return Err(format!("--threads must be >= 1\n{}", usage()));
                }
                ctx.threads = threads;
            }
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    Ok((command, ctx, quick))
}

fn usage() -> String {
    "usage: experiments <fig1|table1|fig4|fig5|fig6|table4|table5|fig7|ablations|\
     restore-ablation|delta-ablation|cluster-ablation|provision-ablation|\
     storage-ablation|summary|all> [--quick] [--seed N] [--invocations N] [--threads N]"
        .to_string()
}

/// Writes `results/<name>` and reports it.
fn write(name: &str, contents: &str) {
    match write_results_file(name, contents) {
        Ok(path) => println!("[saved {name} -> {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save {name}: {e}]"),
    }
}

fn run_command(command: &str, ctx: &ExperimentContext, quick: bool) -> Result<(), String> {
    match command {
        "fig1" => {
            let r = fig1::run(ctx);
            println!("{}", r.render());
            write("fig1.csv", &r.to_csv());
        }
        "table1" => {
            let r = table1::run(ctx);
            println!("{}", r.render());
            write("table1.csv", &r.to_csv());
        }
        "fig4" => {
            let r = fig45::run_fig4(ctx);
            println!("{}", r.render());
            write("fig4.csv", &r.to_csv());
        }
        "fig5" => {
            let r = fig45::run_fig5(ctx);
            println!("{}", r.render());
            write("fig5.csv", &r.to_csv());
        }
        "fig6" => {
            let r = fig6::run(ctx);
            println!("{}", r.render());
            write("fig6.csv", &r.to_csv());
        }
        "table4" => {
            let r = table4::run(ctx);
            println!("{}", r.render());
            write("table4.csv", &r.to_csv());
        }
        "table5" => {
            let r = table5::run(ctx);
            println!("{}", r.render());
            write("table5.csv", &r.to_csv());
        }
        "fig7" => {
            let r = fig7::run(ctx);
            println!("{}", r.render());
            write("fig7.csv", &r.to_csv());
        }
        "ablations" => {
            let r = ablation::run(ctx);
            println!("{}", r.render());
            write("ablations.csv", &r.to_csv());
        }
        "restore-ablation" => {
            let r = restore_ablation::run(ctx);
            println!("{}", r.render());
            write("restore_ablation.csv", &r.to_csv());
            write("BENCH_restore.json", &r.bench_json());
        }
        "delta-ablation" => {
            let r = delta_ablation::run(ctx);
            println!("{}", r.render());
            write("delta_ablation.csv", &r.to_csv());
            write("BENCH_delta.json", &r.bench_json());
        }
        "cluster-ablation" => {
            let r = cluster_ablation::run(ctx);
            println!("{}", r.render());
            write("cluster_ablation.csv", &r.to_csv());
            write("BENCH_cluster.json", &r.bench_json());
        }
        "provision-ablation" => {
            let r = provision_ablation::run(ctx, quick);
            println!("{}", r.render());
            write("provision_ablation.csv", &r.sweep.to_csv());
            write("BENCH_provision.json", &r.bench_json());
        }
        "storage-ablation" => {
            let r = storage_ablation::run(ctx);
            println!("{}", r.render());
            write("storage_ablation.csv", &r.to_csv());
            write("BENCH_storage.json", &r.bench_json());
        }
        "summary" => {
            let f4 = fig45::run_fig4(ctx);
            let f5 = fig45::run_fig5(ctx);
            let s = summary::summarize(&[&f4.grid, &f5.grid]);
            println!("{}", s.render());
            write("summary.csv", &s.to_csv());
            let grids = [("fig4", &f4.grid), ("fig5", &f5.grid)];
            write("BENCH_grid.json", &bench_report::render_json(&grids));
        }
        "all" => {
            for cmd in [
                "fig1",
                "table1",
                "fig4",
                "fig5",
                "fig6",
                "table4",
                "table5",
                "fig7",
                "ablations",
                "summary",
                "restore-ablation",
                "delta-ablation",
                "cluster-ablation",
                "provision-ablation",
                "storage-ablation",
            ] {
                println!("==================== {cmd} ====================");
                run_command(cmd, ctx, quick)?;
            }
        }
        other => return Err(format!("unknown command: {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let (command, ctx, quick) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
    if let Err(e) = run_command(&command, &ctx, quick) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
