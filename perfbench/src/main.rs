//! Wall-clock benchmark of the PGT-I reproduction: index-batched training,
//! the standard-DDP baseline it is compared against, and live serving.
//!
//! ```text
//! perfbench --workload <train-index|train-ddp-ooc|serve-live>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints one JSON report as its last stdout line. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` the per-layer split (and the
//! tracing overhead against an untraced reference in the same run).
//! `perfbench/run.py` builds this binary, runs it, and labels the report
//! from `perfbench/catalog.json`.

mod heap;
mod report;
mod serve;
mod trace;
mod train;

use report::{Json, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Internal: train `serve-live`'s model and write its snapshot here.
    pub train_snapshot: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut train_snapshot = None;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--train-snapshot" => train_snapshot = Some(value.clone().into()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        train_snapshot,
    })
}

/// The host and thread budget a run uses; refuses oversubscription.
fn environment(workload: &str) -> Result<BTreeMap<String, Json>, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = st_tensor::par::num_threads();
    // Every workload runs two concurrent workers: two training ranks or
    // two serving shards.
    let world = train::WORLD;
    if world * threads > nproc {
        return Err(format!(
            "{workload}: world {world} × ST_NUM_THREADS {threads} exceeds nproc {nproc}; \
             set ST_NUM_THREADS so the product fits"
        ));
    }
    let mut env = BTreeMap::new();
    env.insert("nproc".into(), nproc.into());
    env.insert("world".into(), world.into());
    env.insert("st_num_threads".into(), threads.into());
    env.insert(
        "profile".into(),
        (if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        })
        .into(),
    );
    Ok(env)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.train_snapshot {
        return match std::fs::write(path, serve::train_snapshot(args.seed, args.seconds)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let mut env = match environment(&args.workload) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    env.insert("seed".into(), args.seed.into());
    env.insert("smoke".into(), args.smoke.into());

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "train-index" => train::run(
            train::TrainSpec::new(train::PlaneKind::Index, args.smoke),
            &args,
            &mut out,
        ),
        "train-ddp-ooc" => train::run(
            train::TrainSpec::new(train::PlaneKind::DdpOutOfCore, args.smoke),
            &args,
            &mut out,
        ),
        "serve-live" => {
            if let Err(e) = serve::run(&args, &mut out) {
                eprintln!("perfbench: serve-live: {e}");
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    // One fresh process per run, so both peaks are this workload's alone.
    if !args.trace {
        out.metric("peak_heap_mib", heap::peak_mib());
        match report::peak_rss_mib() {
            Some(mib) => out.metric("peak_rss_mib", mib),
            None => out.check("peak_rss_readable", false, "no VmHWM in /proc/self/status"),
        }
    }

    let checks = out
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            let mut c = BTreeMap::new();
            c.insert("name".to_string(), Json::from(name.as_str()));
            c.insert("ok".to_string(), Json::from(*ok));
            c.insert("detail".to_string(), Json::from(detail.as_str()));
            Json::Obj(c)
        })
        .collect();
    let mut line = BTreeMap::new();
    line.insert("workload".to_string(), Json::from(args.workload.as_str()));
    line.insert("trace".to_string(), Json::from(args.trace));
    line.insert("env".to_string(), Json::Obj(env));
    line.insert(
        "metrics".to_string(),
        Json::Obj(
            out.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        ),
    );
    line.insert("info".to_string(), Json::Obj(out.info));
    line.insert("checks".to_string(), Json::Arr(checks));
    line.insert("attempted".to_string(), out.attempted.into());
    line.insert("failed".to_string(), out.failed.into());
    println!("{}", Json::Obj(line).to_line());
    ExitCode::SUCCESS
}
