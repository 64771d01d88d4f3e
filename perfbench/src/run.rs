//! One round of a workload's operations, the per-layer probes of a traced
//! round, and the checks on a round's outputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ei_core::cache::{fingerprint_interface, EvalCache};
use ei_core::ecv::{EcvEnv, EcvValue};
use ei_core::interp::{
    enumerate_exact, eval_with_assignment, evaluate_batch, evaluate_energy, expected_energy,
    monte_carlo, EvalConfig, ExecMode,
};
use ei_core::value::Value;
use ei_core::vm;
use ei_sched::des::{run_cluster_sim, RunStats, UtilizationLb};

use crate::checks;
use crate::corpus::{check_pass, pass_item, PassOutput};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Native, Setup, Target};

/// Raw end-to-end measurements of a set of rounds.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    /// Set-up repetitions, seconds.
    pub setup_s: Vec<f64>,
    /// Corpus passes, ms.
    pub corpus_ms: Vec<f64>,
    /// Per round: median sweep call, ms.
    pub sweep_p50_ms: Vec<f64>,
    /// Every query latency, µs.
    pub query_us: Vec<f64>,
    /// Per round: sweep points evaluated per second of sweeping.
    pub eval_rate: Vec<f64>,
    /// Per round: queries answered per second of querying.
    pub query_rate: Vec<f64>,
    /// Per round: Monte-Carlo samples per second of distribution queries.
    pub mc_rate: Vec<f64>,
    /// Per round: requests simulated (both policies) per second of
    /// simulation.
    pub des_rate: Vec<f64>,
}

/// What one round produced.
#[derive(Default)]
pub struct Outputs {
    /// One entry per corpus item.
    pub passes: Vec<Result<PassOutput, String>>,
    /// Joules per sweep point, per sweep.
    pub sweeps: Vec<Vec<f64>>,
    /// Query answers, Joules: in the first pass over the stream, query `i`
    /// of target `t` is at `i * targets + t`.
    pub answers: Vec<f64>,
    /// `(target, query index, mean J, samples)` per Monte-Carlo query.
    pub mcs: Vec<(usize, usize, f64, usize)>,
    /// Simulation stats, utilization then energy policy, per simulation.
    pub des: Vec<RunStats>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Error messages of failed operations.
    pub errors: Vec<String>,
}

impl Outputs {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

fn mc_seed(query: usize) -> u64 {
    0x3C00 + query as u64
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one round — `Setup::reps` corpus passes, sweeps, query streams
/// and simulations under both policies, in that order — timing each
/// operation into `rec`.
pub fn round(s: &Setup, tr: &mut Tracer, rec: &mut E2e, op: &mut u64) -> Outputs {
    let mut out = Outputs::default();
    for _ in 0..s.reps.corpus {
        corpus_pass(s, tr, rec, op, &mut out);
    }
    for _ in 0..s.reps.sweeps {
        sweeps(s, tr, rec, op, &mut out);
    }
    for _ in 0..s.reps.queries {
        queries(s, tr, rec, op, &mut out);
    }
    for _ in 0..s.reps.sims {
        simulate(s, tr, rec, op, &mut out);
    }
    out
}

/// One pass over the corpus, source to certificate.
fn corpus_pass(s: &Setup, tr: &mut Tracer, rec: &mut E2e, op: &mut u64, out: &mut Outputs) {
    *op += 1;
    let id = *op;
    let t = Instant::now();
    let passes: Vec<_> = tr.span("op.corpus_pass", id, |tr| {
        s.corpus
            .iter()
            .map(|item| tr.span("toolchain.item", id, |tr| pass_item(item, tr, id)))
            .collect()
    });
    rec.corpus_ms.push(secs(t) * 1e3);
    if tr.on() {
        let ok = passes
            .iter()
            .filter_map(|r: &Result<PassOutput, String>| r.as_ref().ok());
        let (instrs, nops) = ok.fold((0, 0), |(i, n), p| (i + p.instrs, n + p.nops));
        tr.sample("vm.instrs", instrs as f64);
        tr.sample("vm.nops", nops as f64);
    }
    for r in &passes {
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(e.clone());
        }
    }
    out.passes.extend(passes);
}

/// The sweeps: one `evaluate_batch` call per argument list.
fn sweeps(s: &Setup, tr: &mut Tracer, rec: &mut E2e, op: &mut u64, out: &mut Outputs) {
    let sweep_target = &s.targets[0];
    let (mut sweep_points, mut sweep_s) = (0.0, 0.0);
    let mut sweep_ms = Vec::with_capacity(s.sweeps.len());
    let env = EcvEnv::from_decls(&sweep_target.iface.ecvs);
    for argsets in &s.sweeps {
        *op += 1;
        let id = *op;
        out.attempted += 1;
        let t = Instant::now();
        let r = tr.span("op.sweep", id, |tr| {
            tr.span("interp.batch", id, |_| {
                evaluate_batch(
                    &sweep_target.iface,
                    sweep_target.func,
                    argsets,
                    &env,
                    0,
                    &sweep_target.cfg,
                )
            })
        });
        let dt = secs(t);
        sweep_ms.push(dt * 1e3);
        sweep_s += dt;
        match r {
            Ok(es) => {
                sweep_points += es.len() as f64;
                out.sweeps.push(es.iter().map(|e| e.as_joules()).collect());
            }
            Err(e) => {
                // An empty placeholder keeps sweep `k` at index `k`.
                out.sweeps.push(Vec::new());
                out.fail(format!("sweep over {}: {e}", sweep_target.name));
            }
        }
    }

    rec.eval_rate.push(sweep_points / sweep_s);
    rec.sweep_p50_ms.push(median(&sweep_ms));
}

/// The query stream through a fresh cache, with its distribution
/// queries.
fn queries(s: &Setup, tr: &mut Tracer, rec: &mut E2e, op: &mut u64, out: &mut Outputs) {
    let cache = EvalCache::new();
    let (mut query_s, mut mc_s, mut mc_n) = (0.0, 0.0, 0.0);
    let mut query_us = Vec::with_capacity(s.stream.len() * s.targets.len());
    let envs: Vec<EcvEnv> = s
        .targets
        .iter()
        .map(|t| EcvEnv::from_decls(&t.iface.ecvs))
        .collect();
    for (i, args) in s.stream.iter().enumerate() {
        for (ti, target) in s.targets.iter().enumerate() {
            *op += 1;
            let id = *op;
            out.attempted += 1;
            let before = cache.stats().hits;
            let t = Instant::now();
            let r = tr.span("op.query", id, |tr| {
                tr.span("cache.query", id, |_| {
                    cache.expected_energy_cached(&target.iface, target.func, args, &target.cfg)
                })
            });
            let ns = t.elapsed().as_nanos() as f64;
            query_us.push(ns / 1e3);
            query_s += ns / 1e9;
            let hit = cache.stats().hits > before;
            tr.sample(if hit { "cache.hit_ns" } else { "cache.miss_ns" }, ns);
            match r {
                Ok(e) => out.answers.push(e.as_joules()),
                Err(e) => {
                    out.answers.push(f64::NAN);
                    out.fail(format!("query {i} of {}: {e}", target.name));
                }
            }
            if s.mc_queries.binary_search(&i).is_err() {
                continue;
            }
            *op += 1;
            let id = *op;
            out.attempted += 1;
            let t = Instant::now();
            let r = tr.span("op.mc", id, |tr| {
                tr.span("interp.mc", id, |_| {
                    monte_carlo(
                        &target.iface,
                        target.func,
                        args,
                        &envs[ti],
                        s.mc_samples,
                        mc_seed(i),
                        &target.cfg,
                    )
                })
            });
            mc_s += secs(t);
            mc_n += s.mc_samples as f64;
            match r {
                Ok(d) => out.mcs.push((ti, i, d.mean().as_joules(), s.mc_samples)),
                Err(e) => out.fail(format!("Monte-Carlo query {i} of {}: {e}", target.name)),
            }
        }
    }
    rec.query_rate.push(query_us.len() as f64 / query_s);
    rec.query_us.extend(query_us);
    rec.mc_rate.push(mc_n / mc_s);
    if tr.on() {
        let st = cache.stats();
        tr.sample("cache.hits", st.hits as f64);
        tr.sample("cache.misses", st.misses as f64);
    }
}

/// One simulation under each policy.
fn simulate(s: &Setup, tr: &mut Tracer, rec: &mut E2e, op: &mut u64, out: &mut Outputs) {
    *op += 1;
    let id = *op;
    out.attempted += 1;
    let d = &s.des;
    let mut util = UtilizationLb::new(
        d.spec.classes.clone(),
        d.spec.assignment.clone(),
        d.sim.initial_active,
    );
    let mut energy = d.energy_lb();
    let t = Instant::now();
    let (a, b) = tr.span("op.des", id, |tr| {
        let a = tr.span("des.run.utilization", id, |_| {
            run_cluster_sim(&d.spec, &d.sim, &d.plan, &mut util)
        });
        let b = tr.span("des.run.energy", id, |_| {
            run_cluster_sim(&d.spec, &d.sim, &d.plan, &mut energy)
        });
        (a.stats, b.stats)
    });
    rec.des_rate
        .push((a.arrivals + b.arrivals) as f64 / secs(t));
    out.des.push(a);
    out.des.push(b);
}

fn first_assignment(env: &EcvEnv, seed: u64) -> BTreeMap<String, EcvValue> {
    use rand::SeedableRng;
    env.sample_assignment(&mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Direct calls into the layers that a round reaches only from inside a
/// driver: steady-state `Vm::run` with and without the optimizer, the
/// tree walk, both engines under the Monte-Carlo driver, exact
/// enumeration, interface fingerprinting, and one sweep inside and
/// outside a telemetry session.
pub fn probes(s: &Setup, tr: &mut Tracer, op: &mut u64) {
    *op += 1;
    let id = *op;
    let t = &s.targets[0];
    let env = EcvEnv::from_decls(&t.iface.ecvs);
    let assignment = first_assignment(&env, id);
    let points: Vec<&Vec<Value>> = s.sweeps[0].iter().take(4).collect();
    let unopt = vm::compile(&t.iface).expect("target compiles");
    let opt = vm::optimize(&unopt);
    for (name, program) in [("vm.run", &opt), ("vm.run.unopt", &unopt)] {
        let mut machine = vm::Vm::new(program);
        // One warm run sizes the register file before timing.
        let _ = machine.run(t.func, points[0], &assignment, &t.cfg);
        for args in &points {
            let _ =
                black_box(tr.span(name, id, |_| machine.run(t.func, args, &assignment, &t.cfg)));
        }
    }
    let walk = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..t.cfg.clone()
    };
    for args in &points {
        let _ = black_box(tr.span("interp.treewalk", id, |_| {
            eval_with_assignment(&t.iface, t.func, args, &assignment, &walk)
        }));
    }
    let args = &s.stream[0];
    const N: usize = 64;
    for (name, cfg) in [
        ("interp.mc_ns_per_sample", &t.cfg),
        ("interp.mc_ns_per_sample.treewalk", &walk),
    ] {
        let t0 = Instant::now();
        let _ = black_box(tr.span("interp.mc", id, |_| {
            monte_carlo(&t.iface, t.func, args, &env, N, id, cfg)
        }));
        tr.sample(name, t0.elapsed().as_nanos() as f64 / N as f64);
    }
    let _ = black_box(tr.span("interp.enumerate", id, |_| {
        enumerate_exact(&t.iface, t.func, args, &env, 4096, &t.cfg)
    }));
    black_box(tr.span("cache.fingerprint", id, |_| fingerprint_interface(&t.iface)));

    let sweep = || {
        let t0 = Instant::now();
        let _ = black_box(evaluate_batch(
            &t.iface,
            t.func,
            &s.sweeps[0],
            &env,
            0,
            &t.cfg,
        ));
        t0.elapsed().as_secs_f64()
    };
    let outside = sweep();
    let inside = {
        let session = ei_telemetry::session();
        let dt = sweep();
        drop(session.finish());
        dt
    };
    tr.sample("telemetry.session_ratio", inside / outside);
}

/// Checks the first round's outputs against computations made apart
/// from the driver calls that produced them. Returns failure messages.
pub fn check_round(s: &Setup, out: &Outputs) -> Vec<String> {
    let mut fails = Vec::new();
    let mut push = |r: Result<(), String>| {
        if let Err(e) = r {
            fails.push(e);
        }
    };
    // Toolchain: every item's pass.
    for (item, pass) in s.corpus.iter().zip(&out.passes) {
        if let Ok(p) = pass {
            push(check_pass(item, p));
        }
    }
    // Sweeps: each point equals a single tree-walk evaluation.
    let t = &s.targets[0];
    let walk = EvalConfig {
        mode: ExecMode::TreeWalk,
        ..t.cfg.clone()
    };
    let env = EcvEnv::from_decls(&t.iface.ecvs);
    for (argsets, got) in s.sweeps.iter().zip(&out.sweeps) {
        for (args, g) in argsets.iter().zip(got) {
            push(
                match evaluate_energy(&t.iface, t.func, args, &env, 0, &walk) {
                    Ok(e) if e.as_joules().to_bits() == g.to_bits() => Ok(()),
                    Ok(e) => Err(format!(
                        "sweep of {}: batch {g:e} J, tree walk {:e} J",
                        t.name,
                        e.as_joules()
                    )),
                    Err(e) => Err(format!("sweep of {}: tree walk failed: {e}", t.name)),
                },
            );
        }
    }
    // Queries: each cached answer equals a fresh, uncached computation
    // (first occurrence of each argument list only).
    let nt = s.targets.len();
    let mut seen = std::collections::HashSet::new();
    for (i, args) in s.stream.iter().enumerate() {
        if !seen.insert(format!("{args:?}")) {
            continue;
        }
        for (ti, target) in s.targets.iter().enumerate() {
            let got = out.answers[i * nt + ti];
            if got.is_nan() {
                continue;
            }
            push(
                match expected_energy(&target.iface, target.func, args, &target.cfg) {
                    Ok(e) => checks::rel_close(
                        &format!("cached query {i} of {}", target.name),
                        got,
                        e.as_joules(),
                        0.0,
                    ),
                    Err(e) => Err(format!("uncached query {i} of {}: {e}", target.name)),
                },
            );
        }
    }
    // Distributions: every Monte-Carlo mean within four standard errors
    // of the exact mean.
    for &(ti, i, mean, n) in &out.mcs {
        let target = &s.targets[ti];
        let env = EcvEnv::from_decls(&target.iface.ecvs);
        push(
            match enumerate_exact(
                &target.iface,
                target.func,
                &s.stream[i],
                &env,
                4096,
                &target.cfg,
            ) {
                Ok(d) => checks::mc_within_4se(
                    &format!("Monte-Carlo query {i} of {}", target.name),
                    mean,
                    d.mean().as_joules(),
                    d.std_dev(),
                    n,
                ),
                Err(e) => Err(format!(
                    "exact enumeration for query {i} of {}: {e}",
                    target.name
                )),
            },
        );
    }
    // Cluster: conservation and energy split for every run.
    for stats in &out.des {
        push(checks::des_accounting(stats));
    }
    // Cluster: a second simulation of the same seed is bit-identical.
    let d = &s.des;
    let mut util = UtilizationLb::new(
        d.spec.classes.clone(),
        d.spec.assignment.clone(),
        d.sim.initial_active,
    );
    let mut energy = d.energy_lb();
    let a = run_cluster_sim(&d.spec, &d.sim, &d.plan, &mut util).stats;
    let b = run_cluster_sim(&d.spec, &d.sim, &d.plan, &mut energy).stats;
    push(checks::des_replay(&out.des[0], &a));
    push(checks::des_replay(&out.des[1], &b));
    fails.extend(native_checks(s, out));
    fails
}

/// Relative bound on a Table 1 prediction against the energy measured on
/// the simulated device through the NVML meter.
pub const T1_PREDICTION_BOUND: f64 = 0.02;

fn num(v: &Value) -> f64 {
    v.as_num().unwrap_or(f64::NAN)
}

fn native_checks(s: &Setup, out: &Outputs) -> Vec<String> {
    let mut fails = Vec::new();
    match &s.native {
        Native::Table1 { gpu } => {
            // A seeded subset: one point in the low, middle and high
            // gen_len strata of the first three sweeps.
            for (k, (argsets, got)) in s.sweeps.iter().zip(&out.sweeps).take(3).enumerate() {
                let i = (5 * k).min(argsets.len() - 1);
                let (p, g) = (num(&argsets[i][0]), num(&argsets[i][1]));
                let measured = ei_bench::table1::measure(gpu, p as u64, g as u64).as_joules();
                if let Err(e) = checks::rel_close(
                    &format!("e_generate({p}, {g}) vs NVML"),
                    got[i],
                    measured,
                    T1_PREDICTION_BOUND,
                ) {
                    fails.push(e);
                }
            }
            // Monotone in gen_len at the prompts of the first sweep.
            let t: &Target = &s.targets[0];
            for args in s.sweeps[0].iter().take(2) {
                let prompt = args[0].clone();
                let ladder: Vec<Vec<Value>> = (1..=8)
                    .map(|k| vec![prompt.clone(), Value::Num(25.0 * k as f64)])
                    .collect();
                match evaluate_batch(&t.iface, t.func, &ladder, &EcvEnv::new(), 0, &t.cfg) {
                    Ok(es) => {
                        let v: Vec<f64> = es.iter().map(|e| e.as_joules()).collect();
                        if let Err(e) =
                            checks::non_decreasing(&format!("e_generate({prompt:?}, 25..200)"), &v)
                        {
                            fails.push(e);
                        }
                    }
                    Err(e) => fails.push(format!("gen ladder: {e}")),
                }
            }
        }
        Native::Fig1(c) => {
            let nt = s.targets.len();
            for (i, args) in s.stream.iter().enumerate() {
                let (size, zeros) = match &args[0] {
                    Value::Record(f) => (num(&f["image_size"]), num(&f["image_zeros"])),
                    _ => unreachable!("Fig. 1 requests are records"),
                };
                let want = checks::fig1_closed_form(c, size, zeros);
                if let Err(e) = checks::rel_close(
                    &format!("healthy Fig. 1 query {i}"),
                    out.answers[i * nt],
                    want,
                    1e-9,
                ) {
                    fails.push(e);
                }
            }
        }
        Native::Toolchain => {}
    }
    fails
}

/// Compares a later round's deterministic outputs with the first round's.
pub fn same_outputs(first: &Outputs, later: &Outputs) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&first.answers) != bits(&later.answers) {
        return Err("query answers changed between rounds".into());
    }
    if first
        .sweeps
        .iter()
        .zip(&later.sweeps)
        .any(|(a, b)| bits(a) != bits(b))
    {
        return Err("sweep results changed between rounds".into());
    }
    if first.des != later.des {
        return Err("simulation results changed between rounds".into());
    }
    Ok(())
}
