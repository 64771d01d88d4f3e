//! The three workloads: what each one sets up, the inputs it feeds every
//! layer, and the checks that belong to it alone.
//!
//! Every workload drives the same four operations — toolchain passes over
//! its corpus, `evaluate_batch` sweeps, cached energy queries with
//! Monte-Carlo distribution queries among them, and cluster simulations —
//! on its own inputs. The inputs decide where the work goes: Table 1
//! sweeps spend it in per-eval execution, the Fig. 1 query stream in the
//! cache and the sampling driver, the corpus in the front end and the
//! static analyses. Every workload also simulates the E10 smoke cluster.

use ei_bench::cluster::{cluster_fault_plan, E10Config};
use ei_core::cache::EvalCache;
use ei_core::compose::link;
use ei_core::interface::Interface;
use ei_core::interp::EvalConfig;
use ei_core::parser::parse;
use ei_core::units::{Calibration, Energy};
use ei_core::value::Value;
use ei_extract::microbench::fit_gpu_model;
use ei_hw::cpu::big_little;
use ei_hw::faults::FaultPlan;
use ei_hw::gpu::{rtx4090, GpuConfig, GpuSim};
use ei_hw::interfaces::{cpu_interface, gpu_interface, gpu_interface_dvfs, nic_interface};
use ei_hw::meter::MeterConfig;
use ei_hw::nic::{datacenter_nic, wifi_radio, NicSim};
use ei_llm::batch_interface::gpt2_batch_interface;
use ei_llm::interface::gpt2_interface;
use ei_llm::model::{gpt2_medium, gpt2_small};
use ei_sched::cluster::{bigmem_node, compute_node};
use ei_sched::des::{ClusterSpec, EnergyLb, NodeClass, SimConfig, SimTime, SplitMix64};
use ei_sched::fuzz::default_campaign;
use ei_sched::provision::bursty_server_interface;
use ei_service::cache::CacheEnergy;
use ei_service::frontend::{
    calibrate_with_fault, fig1_faulted_calibration, fig1_interface_faulted, FaultMixture,
};
use ei_service::service::{fig1_calibration, fig1_interface, MlWebService, MAX_RESPONSE_LEN};

use crate::checks::{fixture_rule, Fig1Constants};
use crate::corpus::Item;
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table1-sweep", "fig1-queries", "toolchain"];

/// Fig. 1's declared cache probabilities (the values the lint and
/// certification gates deploy it with).
pub const FIG1_P_HIT: f64 = 0.25;
/// Fig. 1's declared local-given-hit probability.
pub const FIG1_P_LOCAL: f64 = 0.8;

/// The fault mixture the fault-conditioned Fig. 1 interface declares.
pub fn fig1_mixture() -> FaultMixture {
    FaultMixture {
        p_request_hit: 0.55,
        p_local_hit: 0.8,
        p_remote_alive: 0.9,
        p_brownout: 0.3,
        p_degraded_given_brownout: 0.5,
        timeout_attempts_per_request: 0.02,
    }
}

/// An interface function the sweeps and queries ask.
pub struct Target {
    /// Display name.
    pub name: String,
    /// The closed (linked) interface.
    pub iface: Interface,
    /// The function asked.
    pub func: &'static str,
    /// Engine config: default engine, the item's calibration.
    pub cfg: EvalConfig,
}

/// One cluster simulation's inputs.
pub struct Des {
    /// The cluster.
    pub spec: ClusterSpec,
    /// Arrivals and knobs.
    pub sim: SimConfig,
    /// Fault windows, node deaths among them.
    pub plan: FaultPlan,
    /// Routing SLO, ns.
    pub slo_ns: u64,
    /// Cache the energy balancer's tables are evaluated through.
    pub cache: EvalCache,
}

impl Des {
    /// A fresh energy-interface balancer (evaluates the class tables).
    pub fn energy_lb(&self) -> EnergyLb {
        EnergyLb::new(
            self.spec.classes.clone(),
            self.spec.assignment.clone(),
            self.sim.initial_active,
            self.slo_ns,
            &self.cache,
        )
    }
}

/// Data only one workload's checks need.
pub enum Native {
    /// Ground truth for Table 1 points comes from this device.
    Table1 {
        /// The simulated GPU.
        gpu: GpuConfig,
    },
    /// The constants the Fig. 1 closed form is built from.
    Fig1(Fig1Constants),
    /// The corpus checks are the whole story.
    Toolchain,
}

/// How many times a round runs each operation. The workload's own
/// operation runs once; a short one runs several times, so that a run
/// times it in enough slots for its fastest to be a quiet one.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Corpus passes.
    pub corpus: usize,
    /// Passes over the sweeps.
    pub sweeps: usize,
    /// Passes over the query stream.
    pub queries: usize,
    /// Simulations under both policies.
    pub sims: usize,
}

/// Everything a workload sets up: the inputs of one round.
pub struct Setup {
    /// Corpus items, passed once per round.
    pub corpus: Vec<Item>,
    /// Query targets; sweeps ask the first.
    pub targets: Vec<Target>,
    /// `evaluate_batch` argument sets, one list per sweep of a round.
    pub sweeps: Vec<Vec<Vec<Value>>>,
    /// Query arguments of one round, each asked of every target.
    pub stream: Vec<Vec<Value>>,
    /// Stream positions whose query also asks for a distribution.
    pub mc_queries: Vec<usize>,
    /// Samples per Monte-Carlo query.
    pub mc_samples: usize,
    /// Cluster simulation inputs.
    pub des: Des,
    /// How many times a round runs each operation.
    pub reps: Reps,
    /// Workload-specific check data.
    pub native: Native,
}

/// Builds the set-up of `workload` for `seed`; `None` for an unknown name.
pub fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Option<Setup> {
    Some(match workload {
        "table1-sweep" => table1(seed, tr),
        "fig1-queries" => fig1(seed, tr),
        "toolchain" => toolchain(seed, tr),
        _ => return None,
    })
}

fn config(fuel: u64, cal: Calibration) -> EvalConfig {
    EvalConfig {
        fuel,
        calibration: cal,
        ..EvalConfig::default()
    }
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

/// The request mix of the Fig. 1 experiment,
/// `request_stream(3000, 200, 0.6, 16384, 0.25, 42)` in `ei_bench::fig1`:
/// requests per stream, hot images, and the share of requests the hot
/// images receive.
pub const FIG1_MIX: (usize, u64, f64) = (3000, 200, 0.6);

/// Fig. 1's mix scaled to a stream of `n` queries, in exact counts so that
/// every seed asks for the same work: `(hot keys, hot queries)`, one hot
/// key per 15 queries and 60% of the queries on them; the rest are
/// one-offs.
pub fn fig1_mix(n: usize) -> (usize, usize) {
    let keys = n * FIG1_MIX.1 as usize / FIG1_MIX.0;
    let hot = (n as f64 * FIG1_MIX.2).round() as usize;
    (keys, hot)
}

/// A round's query stream: exactly `n_hot` repeats spread evenly over
/// `hot`, and the one-offs `fresh`, in a seeded order. Returns the stream
/// and the position of each one-off in it, in `fresh` order.
fn skewed_stream(
    rng: &mut SplitMix64,
    hot: &[Vec<Value>],
    n_hot: usize,
    fresh: Vec<Vec<Value>>,
) -> (Vec<Vec<Value>>, Vec<usize>) {
    let n_fresh = fresh.len();
    let mut tagged: Vec<(Option<usize>, Vec<Value>)> = (0..n_hot)
        .map(|i| (None, hot[i % hot.len()].clone()))
        .chain(fresh.into_iter().enumerate().map(|(k, a)| (Some(k), a)))
        .collect();
    for i in (1..tagged.len()).rev() {
        tagged.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut positions = vec![0; n_fresh];
    for (pos, (k, _)) in tagged.iter().enumerate() {
        if let Some(k) = k {
            positions[*k] = pos;
        }
    }
    (tagged.into_iter().map(|(_, a)| a).collect(), positions)
}

/// `k` values stratified over `[lo, hi)`: one uniform draw per equal
/// stratum, so every sweep covers the range evenly.
fn stratified(rng: &mut SplitMix64, k: usize, lo: f64, hi: f64) -> Vec<f64> {
    let w = (hi - lo) / k as f64;
    (0..k)
        .map(|i| (lo + w * (i as f64 + rng.next_f64())).floor())
        .collect()
}

// ---------------------------------------------------------------------------
// Cluster shapes
// ---------------------------------------------------------------------------

fn des_from(cfg: &E10Config) -> Des {
    Des {
        spec: ClusterSpec::mixed(cfg.n_perf, cfg.n_eff),
        sim: SimConfig {
            seed: cfg.seed,
            n_requests: cfg.n_requests,
            phases: cfg.phases.clone(),
            autoscale_tick_ms: 250.0,
            slo_ms: cfg.slo_ms,
            initial_active: cfg.initial_active,
            max_queue: 128,
            horizon_s: 0.0,
            track_ids: false,
        },
        plan: cluster_fault_plan(cfg),
        slo_ns: SimTime::from_millis(cfg.slo_ms).0,
        cache: EvalCache::new(),
    }
}

/// The cluster every workload simulates: the E10 smoke shape (10 nodes,
/// 10k requests, two node deaths).
pub fn small_shape(seed: u64) -> E10Config {
    E10Config {
        seed,
        ..E10Config::smoke()
    }
}

fn timed_lb(des: &Des, tr: &mut Tracer) {
    tr.span("des.lb_setup", 0, |_| des.energy_lb());
}

// ---------------------------------------------------------------------------
// table1-sweep
// ---------------------------------------------------------------------------

/// Table 1's prompt lengths, `[lo, hi)`.
pub const T1_PROMPT: (f64, f64) = (8.0, 65.0);
/// Table 1's generated tokens, `[lo, hi)` (it generates up to 200).
pub const T1_GEN: (f64, f64) = (25.0, 201.0);
/// Sweeps per round.
pub const T1_SWEEPS: usize = 8;
/// Points per sweep.
pub const T1_POINTS: usize = 12;
/// Queries per round. Queries and distributions are kept few, so that
/// the sweeps do most of a round's work.
pub const T1_QUERIES: usize = 45;
/// A distribution is asked for at every this many one-off queries.
pub const T1_MC_EVERY: usize = 6;

fn table1(seed: u64, tr: &mut Tracer) -> Setup {
    let gpu = rtx4090();
    let (model, _) = tr
        .span("extract.fit", 0, |_| {
            fit_gpu_model(&gpu, MeterConfig::nvml())
        })
        .expect("microbenchmark campaign fits");
    let hw = model.to_interface(&gpu);
    let upper = gpt2_interface(&gpt2_small());
    let linked = tr
        .span("compose.link", 0, |_| link(&upper, &[&hw]))
        .expect("GPT-2 links over the fitted GPU");
    let mut rng = SplitMix64::stream(seed, 0x7AB1);
    let point = |p: f64, g: f64| vec![num(p), num(g)];
    // Sweep, hot and one-off points alike are stratified over gen_len,
    // which sets an evaluation's cost, so every seed asks for the same work.
    let points = |rng: &mut SplitMix64, k: usize| -> Vec<Vec<Value>> {
        stratified(rng, k, T1_GEN.0, T1_GEN.1)
            .into_iter()
            .map(|g| point(stratified(rng, 1, T1_PROMPT.0, T1_PROMPT.1)[0], g))
            .collect()
    };
    let sweeps = (0..T1_SWEEPS)
        .map(|_| points(&mut rng, T1_POINTS))
        .collect();
    let (keys, n_hot) = fig1_mix(T1_QUERIES);
    let hot = points(&mut rng, keys);
    let fresh = points(&mut rng, T1_QUERIES - n_hot);
    let (stream, fresh_at) = skewed_stream(&mut rng, &hot, n_hot, fresh);
    // Distributions for some one-offs: stratified over gen_len too.
    let mut mc_queries: Vec<usize> = fresh_at.into_iter().step_by(T1_MC_EVERY).collect();
    mc_queries.sort_unstable();
    let des = des_from(&small_shape(seed));
    timed_lb(&des, tr);
    Setup {
        corpus: vec![Item::new(
            "GPT-2 small over fitted rtx4090",
            vec![upper, hw],
            Calibration::empty(),
        )],
        targets: vec![Target {
            name: "GPT-2 small over fitted rtx4090".into(),
            iface: linked,
            func: "e_generate",
            cfg: config(400_000_000, Calibration::empty()),
        }],
        sweeps,
        stream,
        mc_queries,
        mc_samples: 256,
        des,
        reps: Reps {
            corpus: 1,
            sweeps: 1,
            queries: 1,
            sims: 4,
        },
        native: Native::Table1 { gpu },
    }
}

// ---------------------------------------------------------------------------
// fig1-queries
// ---------------------------------------------------------------------------

/// The Fig. 1 experiment's image size (elements) and zero share.
pub const F1_IMAGE: (u64, f64) = (16_384, 0.25);
/// Monte-Carlo distributions are asked for every this many requests.
pub const F1_MC_EVERY: usize = 25;

struct Fig1Parts {
    healthy: Interface,
    faulted: Interface,
    cal_healthy: Calibration,
    cal_faulted: Calibration,
    consts: Fig1Constants,
}

fn fig1_parts() -> Fig1Parts {
    let mut svc = MlWebService::new(
        GpuSim::new(rtx4090()),
        NicSim::new(datacenter_nic()),
        256,
        4096,
    )
    .expect("service fits");
    let cal = svc.calibrate_cnn();
    let cal_br = calibrate_with_fault(&rtx4090(), 0.85, 0.25).expect("brownout probe fits");
    let nic = datacenter_nic();
    let cache = CacheEnergy::default();
    let healthy = fig1_interface(
        FIG1_P_HIT,
        FIG1_P_LOCAL,
        &cal,
        &cache,
        nic.e_byte,
        nic.e_packet,
    );
    let faulted = fig1_interface_faulted(
        &fig1_mixture(),
        &cal,
        &cal_br,
        &cache,
        nic.e_byte,
        nic.e_packet,
    );
    let unit = |u: &str| cal.units.get(u).map_or(f64::NAN, |e: Energy| e.as_joules());
    let consts = Fig1Constants {
        p_hit: FIG1_P_HIT,
        p_local: FIG1_P_LOCAL,
        lookup: cache.local_lookup.as_joules(),
        local_per_byte: cache.local_per_byte.as_joules(),
        remote_per_byte: cache.remote_per_byte.as_joules(),
        nic_per_byte: nic.e_byte.as_joules(),
        nic_fixed: nic.e_packet.as_joules(),
        conv_fixed: cal.conv_fixed.as_joules(),
        conv_per_elem: cal.conv_per_elem.as_joules(),
        relu: unit("relu"),
        mlp: unit("mlp"),
        response_len: MAX_RESPONSE_LEN as f64,
    };
    Fig1Parts {
        healthy,
        faulted,
        cal_healthy: fig1_calibration(&cal),
        cal_faulted: fig1_faulted_calibration(&cal, &cal_br),
        consts,
    }
}

fn fig1(seed: u64, tr: &mut Tracer) -> Setup {
    let parts = fig1_parts();
    let mut rng = SplitMix64::stream(seed, 0xF161);
    // The Fig. 1 experiment's mix at a quarter of its length (a quarter of
    // the hot images too), so that a round takes about half a second and a
    // run holds enough rounds for its fastest one to be a quiet one. Unlike
    // `request_stream`, which draws every request's popularity on its own,
    // the counts are exact: the share of misses then does not move with
    // the seed, and neither does where the median query falls.
    let n = FIG1_MIX.0 / 4;
    let (keys, n_hot) = fig1_mix(n);
    let (size, zero_share) = F1_IMAGE;
    let image = |id: u64| {
        vec![Value::num_record([
            ("image_id", id as f64),
            ("image_size", size as f64),
            ("image_zeros", (size as f64 * zero_share) as u64 as f64),
        ])]
    };
    let hot: Vec<Vec<Value>> = (0..keys as u64).map(image).collect();
    // One-off ids as `request_stream` numbers them.
    let fresh = (0..(n - n_hot) as u64)
        .map(|k| image(1_000_001 + k))
        .collect();
    let (stream, _) = skewed_stream(&mut rng, &hot, n_hot, fresh);
    let sweeps = vec![stream[..128].to_vec(), stream[n / 2..n / 2 + 128].to_vec()];
    let des = des_from(&small_shape(seed));
    timed_lb(&des, tr);
    Setup {
        corpus: vec![
            Item::new(
                "Fig. 1 healthy",
                vec![parts.healthy.clone()],
                parts.cal_healthy.clone(),
            ),
            Item::new(
                "Fig. 1 fault-conditioned",
                vec![parts.faulted.clone()],
                parts.cal_faulted.clone(),
            ),
        ],
        targets: vec![
            Target {
                name: "Fig. 1 healthy".into(),
                iface: parts.healthy,
                func: "handle",
                cfg: config(ei_core::interp::DEFAULT_FUEL, parts.cal_healthy),
            },
            Target {
                name: "Fig. 1 fault-conditioned".into(),
                iface: parts.faulted,
                func: "handle",
                cfg: config(ei_core::interp::DEFAULT_FUEL, parts.cal_faulted),
            },
        ],
        sweeps,
        mc_queries: (0..stream.len()).step_by(F1_MC_EVERY).collect(),
        stream,
        mc_samples: 1024,
        des,
        reps: Reps {
            corpus: 8,
            sweeps: 8,
            queries: 1,
            sims: 8,
        },
        native: Native::Fig1(parts.consts),
    }
}

// ---------------------------------------------------------------------------
// toolchain
// ---------------------------------------------------------------------------

const DRAM_EIL: &str = include_str!("../../examples/eil/dram.eil");
const WEBSERVICE_EIL: &str = include_str!("../../examples/eil/webservice.eil");
const BAD_EIL: [(&str, &str); 7] = [
    (
        "e001_unit_mismatch",
        include_str!("../../tests/fixtures/bad_eil/e001_unit_mismatch.eil"),
    ),
    (
        "e002_uncalibrated",
        include_str!("../../tests/fixtures/bad_eil/e002_uncalibrated.eil"),
    ),
    (
        "e003_negative_energy",
        include_str!("../../tests/fixtures/bad_eil/e003_negative_energy.eil"),
    ),
    (
        "e004_unbounded",
        include_str!("../../tests/fixtures/bad_eil/e004_unbounded.eil"),
    ),
    (
        "w001_dead",
        include_str!("../../tests/fixtures/bad_eil/w001_dead.eil"),
    ),
    (
        "w002_nondeterminism",
        include_str!("../../tests/fixtures/bad_eil/w002_nondeterminism.eil"),
    ),
    (
        "w003_composition",
        include_str!("../../tests/fixtures/bad_eil/w003_composition.eil"),
    ),
];

/// Every bundled interface, the example `.eil` files and the lint
/// fixtures, each with the calibration it is deployed under.
pub fn full_corpus(tr: &mut Tracer) -> Vec<Item> {
    let none = Calibration::empty;
    let sec = || Calibration::from_pairs([("sec", Energy::joules(1.0))]);
    let gpu = rtx4090();
    let mut items = Vec::new();
    for (name, model) in [("small", gpt2_small()), ("medium", gpt2_medium())] {
        items.push(Item::new(
            &format!("GPT-2 {name} over vendor rtx4090"),
            vec![gpt2_interface(&model), gpu_interface(&gpu)],
            none(),
        ));
        items.push(Item::new(
            &format!("GPT-2 {name} batch serving over DVFS rtx4090"),
            vec![gpt2_batch_interface(&model), gpu_interface_dvfs(&gpu)],
            sec(),
        ));
    }
    let (model, _) = tr
        .span("extract.fit", 0, |_| {
            fit_gpu_model(&gpu, MeterConfig::nvml())
        })
        .expect("microbenchmark campaign fits");
    items.push(Item::new(
        "GPT-2 small over fitted rtx4090",
        vec![gpt2_interface(&gpt2_small()), model.to_interface(&gpu)],
        none(),
    ));
    let parts = fig1_parts();
    items.push(Item::new(
        "Fig. 1 healthy",
        vec![parts.healthy],
        parts.cal_healthy,
    ));
    items.push(Item::new(
        "Fig. 1 fault-conditioned",
        vec![parts.faulted],
        parts.cal_faulted,
    ));
    let (big, little) = big_little();
    items.push(Item::new("CPU big core", vec![cpu_interface(&big)], none()));
    items.push(Item::new(
        "CPU little core",
        vec![cpu_interface(&little)],
        none(),
    ));
    items.push(Item::new(
        "NIC datacenter",
        vec![nic_interface("datacenter", &datacenter_nic())],
        none(),
    ));
    items.push(Item::new(
        "NIC wifi",
        vec![nic_interface("wifi", &wifi_radio())],
        none(),
    ));
    items.push(Item::new(
        "DES node perf",
        vec![NodeClass::perf().interface()],
        none(),
    ));
    items.push(Item::new(
        "DES node eff",
        vec![NodeClass::eff().interface()],
        none(),
    ));
    items.push(Item::new(
        "cluster compute node",
        vec![compute_node().interface()],
        none(),
    ));
    items.push(Item::new(
        "cluster bigmem node",
        vec![bigmem_node().interface()],
        none(),
    ));
    items.push(Item::new(
        "fuzzing fleet",
        vec![default_campaign().interface()],
        none(),
    ));
    items.push(Item::new(
        "bursty server",
        vec![bursty_server_interface()],
        none(),
    ));
    items.push(Item::new(
        "examples/eil/dram.eil",
        vec![parse(DRAM_EIL).expect("dram.eil parses")],
        none(),
    ));
    items.push(Item::new(
        "examples/eil/webservice.eil",
        vec![parse(WEBSERVICE_EIL).expect("webservice.eil parses")],
        webservice_cal(),
    ));
    for (stem, src) in BAD_EIL {
        let program = ei_core::parser::parse_all(src).expect("fixture parses");
        items.push(Item {
            fixture_rule: Some(fixture_rule(stem)),
            ..Item::new(
                &format!("tests/fixtures/bad_eil/{stem}.eil"),
                program,
                none(),
            )
        });
    }
    items
}

/// The calibration `webservice.eil` is evaluated under.
pub fn webservice_cal() -> Calibration {
    Calibration::from_pairs([
        ("conv2d", Energy::joules(1.5e-4)),
        ("relu", Energy::joules(1e-7)),
        ("mlp", Energy::joules(1.2e-4)),
    ])
}

/// `dram.eil` queries per stream on `toolchain`.
pub const TC_QUERIES: usize = 60;

fn toolchain(seed: u64, tr: &mut Tracer) -> Setup {
    let mut corpus = full_corpus(tr);
    let mut rng = SplitMix64::stream(seed, 0x7001);
    // Seeded pass order.
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let dram = parse(DRAM_EIL).expect("dram.eil parses");
    let bytes = |rng: &mut SplitMix64| vec![num(stratified(rng, 1, 1.0, 65_537.0)[0])];
    let sweeps = (0..4)
        .map(|_| {
            stratified(&mut rng, 256, 1.0, 65_537.0)
                .into_iter()
                .map(|b| vec![num(b)])
                .collect()
        })
        .collect();
    let (keys, n_hot) = fig1_mix(TC_QUERIES);
    let hot: Vec<Vec<Value>> = (0..keys).map(|_| bytes(&mut rng)).collect();
    let fresh = (0..TC_QUERIES - n_hot).map(|_| bytes(&mut rng)).collect();
    let (stream, _) = skewed_stream(&mut rng, &hot, n_hot, fresh);
    let des = des_from(&small_shape(seed));
    timed_lb(&des, tr);
    Setup {
        corpus,
        targets: vec![Target {
            name: "examples/eil/dram.eil".into(),
            iface: dram,
            func: "read",
            cfg: config(ei_core::interp::DEFAULT_FUEL, Calibration::empty()),
        }],
        sweeps,
        mc_queries: (0..stream.len()).step_by(16).collect(),
        stream,
        mc_samples: 1024,
        des,
        reps: Reps {
            corpus: 1,
            sweeps: 4,
            queries: 4,
            sims: 4,
        },
        native: Native::Toolchain,
    }
}
