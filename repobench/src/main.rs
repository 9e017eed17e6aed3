//! The repository benchmark: one command runs one named workload with a
//! seed and prints every end-to-end metric with its unit and sample
//! count, the attempted/failed counts and the correctness verdict; a
//! traced run prints the per-layer metrics instead.
//!
//! ```text
//! repobench --workload serve-hot|serve-explain|eval-table3 --seed N
//!           --seconds S --trace 0|1 [--server-bin PATH] [--inject-corruption]
//! ```
//!
//! `--seconds` sizes each workload's fixed, seeded operation list; it is
//! not a time window, so two runs with the same arguments do the same
//! work. `--inject-corruption` alters one response before the
//! correctness check, which must then fail.
//! The last line of standard output is the JSON result.

mod client;
mod eval;
mod layers;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metric, Outcome};

/// What a workload needs from the command line.
pub struct RunOpts<'a> {
    pub server_bin: &'a Path,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub corrupt: bool,
}

/// Every per-layer metric and its unit. A traced run prints all of
/// them; a layer the workload does not load reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("net.floor_us", "us"),
    ("event.healthz_p50_us", "us"),
    ("http.parse_ns", "ns"),
    ("http.write_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("queue.wait_us", "us"),
    ("route.key_ns", "ns"),
    ("isa.parse_ns", "ns"),
    ("isa.canon_ns", "ns"),
    ("ledger.predict_p50_us", "us"),
    ("ledger.predict_layers_us", "us"),
    ("ledger.predict_unattributed_us", "us"),
    ("ledger.explain_p50_us", "us"),
    ("ledger.explain_layers_us", "us"),
    ("ledger.explain_unattributed_us", "us"),
    ("store.lookup_ns", "ns"),
    ("store.hit_ratio", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("serve.search_ratio", "ratio"),
    ("perturb.ns_per_draw", "ns"),
    ("search.queries_per_explain", "count"),
    ("search.self_ns_per_query", "ns"),
    ("search.batch_occupancy", "ratio"),
    ("search.anchored_ratio", "ratio"),
    ("model.crude_ns_per_query", "ns"),
    ("model.ithemal_ns_per_query", "ns"),
    ("model.uica_ns_per_query", "ns"),
    ("nn.train_s", "s"),
    ("bhive.corpus_s", "s"),
    ("par.busy_share", "ratio"),
    ("model.busy_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("serve.degraded_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("machine.steal_jiffies", "jiffies"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repobench --workload serve-hot|serve-explain|eval-table3 --seed N --seconds S \
         --trace 0|1 [--server-bin PATH] [--inject-corruption]"
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: Option<PathBuf>,
    corrupt: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        server_bin: None,
        corrupt: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = argv.next()?,
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => args.seconds = argv.next()?.parse().ok().filter(|&s| s > 0)?,
            "--trace" => {
                args.trace = match argv.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--server-bin" => args.server_bin = Some(PathBuf::from(argv.next()?)),
            "--inject-corruption" => args.corrupt = true,
            _ => return None,
        }
    }
    Some(args)
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success() && Path::new(".git").exists())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn run(workload: &str, opts: &RunOpts) -> std::io::Result<Outcome> {
    match workload {
        "serve-hot" => serve::serve_hot(opts),
        "serve-explain" => serve::serve_explain(opts),
        _ => eval::eval_table3(opts),
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    if !["serve-hot", "serve-explain", "eval-table3"].contains(&args.workload.as_str()) {
        return usage();
    }
    let server_bin = args.server_bin.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        target.join("release").join("comet-serve")
    });
    if args.workload.starts_with("serve") && !server_bin.is_file() {
        eprintln!("error: no comet-serve binary at {}", server_bin.display());
        return ExitCode::FAILURE;
    }
    println!("# commit {}", commit());
    println!("# nproc {}", nproc());
    println!("# kernel {}", comet_nn::kernel::active().name);
    println!("# cpu_features {}", comet_nn::kernel::cpu_features());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut opts = RunOpts {
        server_bin: &server_bin,
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        corrupt: args.corrupt,
    };
    let untraced = match run(&args.workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        report::emit(&untraced, false);
        return ExitCode::SUCCESS;
    }
    // Traced: the same workload again with the layer probes on; the
    // throughput difference is the cost of tracing.
    opts.traced = true;
    let mut traced = match run(&args.workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: traced {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let overhead = 100.0 * (untraced.ok_per_s() - traced.ok_per_s()) / untraced.ok_per_s();
    traced.layers.push(Metric::new("trace.overhead_pct", "%", overhead, 2));
    for &(name, unit) in LAYERS {
        if !traced.layers.iter().any(|m| m.name == name) {
            traced.layers.push(Metric::new(name, unit, 0.0, 0));
        }
    }
    traced.layers.sort_by_key(|m| LAYERS.iter().position(|&(n, _)| n == m.name));
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.correct &= untraced.correct;
    traced.notes.splice(0..0, untraced.notes);
    report::emit(&traced, true);
    ExitCode::SUCCESS
}
