//! The layered benchmark of the energy-clarity workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see `perfbench/README.md`) in this process on
//! the calling thread, checks its outputs, and prints each metric by name
//! and unit, then one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` alternate rounds record spans around every layer call and
//! the metrics are the per-layer self times plus the tracing overhead of
//! each end-to-end metric. Spans are written to
//! `perfbench/out/trace-<workload>-<seed>.json` when the run ends.

mod checks;
mod corpus;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use run::{E2e, Outputs};
use trace::Tracer;

/// Set-up runs this many times before the first round.
const SETUP_REPS: usize = 3;
/// Share of the run's time given to further set-up repetitions, made
/// between rounds so that they sample the machine over the whole run as
/// the rounds do; `setup_s` is the fastest repetition.
const SETUP_SHARE: f64 = 0.2;
/// Most set-up repetitions between two rounds.
const SETUP_BURST: usize = 16;
/// Rounds a run holds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(false);
    // Untraced and traced halves of the run: even-numbered set-ups and
    // rounds run untraced, odd-numbered ones traced (trace mode only).
    let mut plain = E2e::default();
    let mut traced = E2e::default();
    let timed_setup = |tr: &mut Tracer, rec: &mut E2e| {
        let t = Instant::now();
        let s = workloads::setup(&args.workload, args.seed, tr).expect("workload name checked");
        rec.setup_s.push(t.elapsed().as_secs_f64());
        s
    };
    let mut s = timed_setup(&mut tr, &mut plain);
    for r in 1..SETUP_REPS + usize::from(args.trace) {
        let on = args.trace && r % 2 == 1;
        tr.set_on(on);
        s = timed_setup(&mut tr, if on { &mut traced } else { &mut plain });
    }

    // Warm-up round: fills lazy state and yields the outputs every check
    // runs on. It is not timed into any metric; its operations are counted
    // in `attempted` and `failed`. A failed operation has no output to
    // check, so it leaves `correct` as it is (see the README's checks).
    tr.set_on(false);
    let mut op = 0u64;
    let first = run::round(&s, &mut tr, &mut E2e::default(), &mut op);
    let mut failures = run::check_round(&s, &first);
    // The warm-up round is a whole round: its operations count too, so an
    // operation that fails only on first use is reported.
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    for e in &first.errors {
        eprintln!("failed operation: {e}");
    }

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut setup_spent = 0.0;
    let secs = |t: Instant| t.elapsed().as_secs_f64();
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        let on = args.trace && rounds % 2 == 1;
        tr.set_on(on);
        let rec = if on { &mut traced } else { &mut plain };
        let mut burst = 0;
        while burst < SETUP_BURST && setup_spent < SETUP_SHARE * secs(start) {
            let t = Instant::now();
            drop(timed_setup(&mut tr, rec));
            setup_spent += secs(t);
            burst += 1;
        }
        let out: Outputs = run::round(&s, &mut tr, rec, &mut op);
        if on {
            run::probes(&s, &mut tr, &mut op);
        }
        attempted += out.attempted;
        failed += out.failed;
        for e in &out.errors {
            eprintln!("failed operation: {e}");
        }
        if let Err(e) = run::same_outputs(&first, &out) {
            failures.push(e);
        }
        rounds += 1;
    }
    tr.set_on(args.trace);
    if args.trace
        && !matches!(
            s.native,
            workloads::Native::Table1 { .. } | workloads::Native::Toolchain
        )
    {
        // The extraction layer runs in set-up only where the workload
        // needs a fitted GPU; measure its campaign here otherwise.
        let gpu = ei_hw::gpu::rtx4090();
        let _ = tr.span("extract.fit", op, |_| {
            ei_extract::microbench::fit_gpu_model(&gpu, ei_hw::meter::MeterConfig::nvml())
        });
    }
    tr.set_on(false);

    let rss_mb = metrics::peak_rss_mb();
    let values = if args.trace {
        let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) = tr.write_json(std::path::Path::new(&path)) {
            eprintln!("perfbench: writing {path}: {e}");
        }
        metrics::per_layer(&tr, &plain, &traced, rss_mb)
    } else {
        metrics::end_to_end(&plain, rss_mb)
    };
    for f in failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "workload {} seed {} rounds {rounds} attempted {attempted} failed {failed} correct {correct}",
        args.workload, args.seed
    );
    println!("{}", metrics::render(&values, correct, attempted, failed));
    ExitCode::SUCCESS
}
