//! The toolchain layer: corpus items and one pass of an item from source
//! to certificate, plus the checks on a pass's outputs.

use std::collections::BTreeMap;

use ei_core::analysis::cert::{certify, Certificate};
use ei_core::compose::link;
use ei_core::ecv::EcvEnv;
use ei_core::interface::{InputSpec, Interface};
use ei_core::interp::{enumerate_exact, evaluate_energy, EvalConfig};
use ei_core::lexer::lex;
use ei_core::parser::parse;
use ei_core::pretty::print_interface;
use ei_core::sema::{check_program, LintOptions};
use ei_core::units::Calibration;
use ei_core::value::Value;
use ei_core::vm::{self, Instr};

use crate::checks;
use crate::trace::Tracer;

/// One corpus item: an upper interface and the providers it links over,
/// deployed under one calibration.
#[derive(Clone)]
pub struct Item {
    /// Display name.
    pub name: String,
    /// Upper interface first, then its providers.
    pub program: Vec<Interface>,
    /// The calibration the item is deployed with.
    pub cal: Calibration,
    /// For a lint fixture, the rule its file name names; such items stop
    /// after `sema::check`, whose finding is their output.
    pub fixture_rule: Option<String>,
}

impl Item {
    /// A deployable item.
    pub fn new(name: &str, program: Vec<Interface>, cal: Calibration) -> Item {
        Item {
            name: name.to_string(),
            program,
            cal,
            fixture_rule: None,
        }
    }
}

/// What one pass produced for one item.
pub struct PassOutput {
    /// Printed source of each interface.
    pub sources: Vec<String>,
    /// Each parsed interface printed again.
    pub reprints: Vec<String>,
    /// Rule ids of the lint findings.
    pub rules: Vec<&'static str>,
    /// The linked interface (deployable items only).
    pub linked: Option<Interface>,
    /// Instructions compiled.
    pub instrs: u64,
    /// Instructions the optimizer turned into nops.
    pub nops: u64,
    /// Verifier verdict, rendered.
    pub verify: Result<(), String>,
    /// The certificate (deployable items only).
    pub cert: Option<Certificate>,
}

fn count_instrs(p: &vm::Program) -> u64 {
    p.chunks.iter().map(|c| c.code.len() as u64).sum()
}

fn count_nops(p: &vm::Program) -> u64 {
    p.chunks
        .iter()
        .flat_map(|c| c.code.iter())
        .filter(|i| matches!(i, Instr::Nop))
        .count() as u64
}

/// Takes one item from source to certificate: print → lex/parse →
/// `sema::check` → link → `vm::compile` → `vm::verify_against` →
/// `vm::optimize` → `cert::certify`, each call inside its own span.
pub fn pass_item(item: &Item, tr: &mut Tracer, op: u64) -> Result<PassOutput, String> {
    let mut sources = Vec::new();
    let mut parsed = Vec::new();
    for iface in &item.program {
        let src = tr.span("pretty.print", op, |_| print_interface(iface));
        let t_lex = std::time::Instant::now();
        tr.span("lexer.lex", op, |_| lex(&src))
            .map_err(|e| format!("{}: lex: {e}", item.name))?;
        let lex_ns = t_lex.elapsed().as_nanos() as f64;
        let t_parse = std::time::Instant::now();
        let mut p = tr
            .span("parser.parse", op, |_| parse(&src))
            .map_err(|e| format!("{}: parse: {e}", item.name))?;
        // `parse` lexes internally: its own share is the remainder.
        tr.sample(
            "parser.parse_only",
            t_parse.elapsed().as_nanos() as f64 - lex_ns,
        );
        // Input domains live beside the source, not in it.
        p.input_specs = iface.input_specs.clone();
        sources.push(src);
        parsed.push(p);
    }
    let reprints = parsed.iter().map(print_interface).collect();
    let opts = LintOptions::with_calibration(item.cal.clone());
    let diags = tr.span("sema.check", op, |_| check_program(&parsed, &opts));
    let rules = diags.iter().map(|d| d.rule).collect();
    let mut out = PassOutput {
        sources,
        reprints,
        rules,
        linked: None,
        instrs: 0,
        nops: 0,
        verify: Ok(()),
        cert: None,
    };
    if item.fixture_rule.is_some() {
        return Ok(out);
    }
    let providers: Vec<&Interface> = parsed[1..].iter().collect();
    let linked = tr
        .span("compose.link", op, |_| link(&parsed[0], &providers))
        .map_err(|e| format!("{}: link: {e}", item.name))?;
    let program = tr
        .span("vm.compile", op, |_| vm::compile(&linked))
        .map_err(|e| format!("{}: compile: {e}", item.name))?;
    out.verify = tr
        .span("vm.verify", op, |_| vm::verify_against(&linked, &program))
        .map_err(|errs| vm::render_errors(&errs));
    let optimized = tr.span("vm.optimize", op, |_| vm::optimize(&program));
    let cert = tr
        .span("cert.certify", op, |_| certify(&linked, &item.cal))
        .map_err(|e| format!("{}: certify: {e}", item.name))?;
    out.instrs = count_instrs(&program);
    out.nops = count_nops(&optimized);
    out.linked = Some(linked);
    out.cert = Some(cert);
    Ok(out)
}

/// Checks one pass's outputs: the print fixed point, the lint verdict
/// (clean, or exactly the fixture's rule), the verifier, and the
/// certificate — finite, ordered, and admitting concrete evaluations at
/// every corner and the midpoint of each declared box.
pub fn check_pass(item: &Item, out: &PassOutput) -> Result<(), String> {
    for (src, again) in out.sources.iter().zip(&out.reprints) {
        checks::fixed_point(&item.name, src, again)?;
    }
    if let Some(rule) = &item.fixture_rule {
        return checks::exactly_rule(&item.name, rule, &out.rules);
    }
    if !out.rules.is_empty() {
        return Err(format!(
            "{}: lint findings {:?} on a bundled interface",
            item.name, out.rules
        ));
    }
    out.verify
        .as_ref()
        .map_err(|e| format!("{}: verifier rejected the compiled program: {e}", item.name))?;
    let (Some(linked), Some(cert)) = (&out.linked, &out.cert) else {
        return Err(format!("{}: no certificate", item.name));
    };
    let cfg = EvalConfig {
        fuel: 500_000_000,
        calibration: item.cal.clone(),
        ..EvalConfig::default()
    };
    let env = EcvEnv::from_decls(&linked.ecvs);
    for (func, fc) in &cert.fns {
        let what = format!("{}::{func}", item.name);
        let (lo, hi) = (fc.bound.lower.as_joules(), fc.bound.upper.as_joules());
        checks::cert_ordered(&what, lo, hi)?;
        let spec = linked.input_specs.get(func).cloned().unwrap_or_default();
        for args in box_points(linked, func, &spec) {
            for e in concrete_energies(linked, func, &args, &env, &cfg)
                .map_err(|e| format!("{what}: {e}"))?
            {
                checks::cert_admits(&what, lo, hi, e)?;
            }
        }
    }
    Ok(())
}

/// Every energy `func(args)` can take: each assignment of a finite ECV
/// space, or three seeded samples of an infinite one.
fn concrete_energies(
    iface: &Interface,
    func: &str,
    args: &[Value],
    env: &EcvEnv,
    cfg: &EvalConfig,
) -> ei_core::Result<Vec<f64>> {
    match enumerate_exact(iface, func, args, env, 256, cfg) {
        Ok(d) => Ok(d.to_samples().iter().map(|e| e.as_joules()).collect()),
        Err(ei_core::Error::Analysis { .. }) => (0..3)
            .map(|seed| evaluate_energy(iface, func, args, env, seed, cfg).map(|e| e.as_joules()))
            .collect(),
        Err(e) => Err(e),
    }
}

/// Boxes with at most this many axes have every corner tested.
pub const ALL_CORNERS_MAX_AXES: usize = 10;
/// Seeded corners tested on a box with more axes, besides the all-low and
/// all-high corners and those one flip away from either.
pub const SAMPLED_CORNERS: usize = 256;

/// The corners and the midpoint of `func`'s declared box, as argument
/// lists. Scalar parameters and record fields each span one axis; a
/// function with an undeclared parameter yields no points. A box with more
/// than [`ALL_CORNERS_MAX_AXES`] axes yields the all-low and all-high
/// corners, every corner one axis away from either, and
/// [`SAMPLED_CORNERS`] corners drawn with a fixed seed over every axis.
pub fn box_points(iface: &Interface, func: &str, spec: &InputSpec) -> Vec<Vec<Value>> {
    let Some(f) = iface.fns.get(func) else {
        return Vec::new();
    };
    // (param index, record field, lo, hi)
    let mut axes: Vec<(usize, Option<String>, f64, f64)> = Vec::new();
    for (i, p) in f.params.iter().enumerate() {
        if let Some(r) = spec.get(p) {
            axes.push((i, None, r.lo, r.hi));
            continue;
        }
        let prefix = format!("{p}.");
        let before = axes.len();
        for (path, r) in spec.iter() {
            if let Some(field) = path.strip_prefix(&prefix) {
                axes.push((i, Some(field.to_string()), r.lo, r.hi));
            }
        }
        if axes.len() == before {
            return Vec::new();
        }
    }
    let build = |pick: &dyn Fn(usize, f64, f64) -> f64| {
        let mut scalars: Vec<Value> = f.params.iter().map(|_| Value::Num(0.0)).collect();
        let mut records: BTreeMap<usize, Vec<(String, Value)>> = BTreeMap::new();
        for (k, (param, field, lo, hi)) in axes.iter().enumerate() {
            let v = Value::Num(pick(k, *lo, *hi));
            match field {
                None => scalars[*param] = v,
                Some(fl) => records.entry(*param).or_default().push((fl.clone(), v)),
            }
        }
        for (param, fields) in records {
            scalars[param] = Value::record(fields);
        }
        scalars
    };
    let n = axes.len();
    let corners: Vec<Vec<bool>> = if n <= ALL_CORNERS_MAX_AXES {
        (0..1usize << n)
            .map(|mask| (0..n).map(|k| mask >> k & 1 == 1).collect())
            .collect()
    } else {
        let mut rng = ei_sched::des::SplitMix64::stream(0xB0C5, n as u64);
        let mut c = Vec::new();
        for base in [false, true] {
            c.push(vec![base; n]);
            c.extend((0..n).map(|flip| (0..n).map(|k| base != (k == flip)).collect()));
        }
        c.extend((0..SAMPLED_CORNERS).map(|_| (0..n).map(|_| rng.next_u64() & 1 == 1).collect()));
        c
    };
    let mut points: Vec<Vec<Value>> = corners
        .iter()
        .map(|hi_at| build(&|k, lo, hi| if hi_at[k] { hi } else { lo }))
        .collect();
    points.push(build(&|_, lo, hi| (lo + hi) / 2.0));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::fixture_rule;

    fn run(item: &Item) -> PassOutput {
        pass_item(item, &mut Tracer::new(false), 0).expect("pass runs")
    }

    #[test]
    fn swapped_fixture_rule_is_rejected() {
        let src = include_str!("../../tests/fixtures/bad_eil/e001_unit_mismatch.eil");
        let mut item = Item {
            fixture_rule: Some(fixture_rule("e001_unit_mismatch")),
            ..Item::new(
                "e001",
                ei_core::parser::parse_all(src).unwrap(),
                Calibration::empty(),
            )
        };
        let out = run(&item);
        assert!(check_pass(&item, &out).is_ok());
        item.fixture_rule = Some("E002".into());
        assert!(check_pass(&item, &out).is_err());
    }

    #[test]
    fn certificate_tightened_past_a_concrete_value_is_rejected() {
        let item = Item::new(
            "node perf",
            vec![ei_sched::des::NodeClass::perf().interface()],
            Calibration::empty(),
        );
        let mut out = run(&item);
        assert!(check_pass(&item, &out).is_ok());
        let cert = out.cert.as_mut().unwrap();
        let fc = cert
            .fns
            .get_mut("p_active_w")
            .expect("zero-parameter fn is certified");
        // p_active_w is a constant: its bound is the point itself. Move
        // the upper end one ulp below it.
        let upper = fc.bound.upper.as_joules();
        fc.bound.upper = ei_core::units::Energy::joules(f64::from_bits(upper.to_bits() - 1));
        fc.bound.lower = ei_core::units::Energy::joules(
            fc.bound.upper.as_joules().min(fc.bound.lower.as_joules()),
        );
        assert!(check_pass(&item, &out).is_err());
    }

    #[test]
    fn broken_print_fixed_point_is_rejected() {
        let item = Item::new(
            "dram",
            vec![ei_core::parser::parse(include_str!("../../examples/eil/dram.eil")).unwrap()],
            Calibration::empty(),
        );
        let mut out = run(&item);
        assert!(check_pass(&item, &out).is_ok());
        out.reprints[0].push(' ');
        assert!(check_pass(&item, &out).is_err());
    }

    #[test]
    fn box_points_cover_corners_and_midpoint() {
        let iface =
            ei_core::parser::parse("interface t { fn f(a, b) { return 1 J * a + 1 J * b; } }")
                .unwrap();
        let spec = InputSpec::new().range("a", 0.0, 2.0).range("b", 10.0, 20.0);
        let pts = box_points(&iface, "f", &spec);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[4], vec![Value::Num(1.0), Value::Num(15.0)]);
        assert!(box_points(&iface, "f", &InputSpec::new().range("a", 0.0, 1.0)).is_empty());
    }

    #[test]
    fn box_points_reach_every_axis_of_a_wide_box() {
        let n = ALL_CORNERS_MAX_AXES + 2;
        let params: Vec<String> = (0..n).map(|k| format!("x{k}")).collect();
        let body: Vec<String> = params.iter().map(|p| format!("1 J * {p}")).collect();
        let src = format!(
            "interface t {{ fn f({}) {{ return {}; }} }}",
            params.join(", "),
            body.join(" + ")
        );
        let iface = ei_core::parser::parse(&src).unwrap();
        let spec = params
            .iter()
            .fold(InputSpec::new(), |s, p| s.range(p, 0.0, 1.0));
        let pts = box_points(&iface, "f", &spec);
        assert_eq!(pts.len(), 2 * (n + 1) + SAMPLED_CORNERS + 1);
        assert!(pts.contains(&vec![Value::Num(1.0); n]));
        // The last axis is high in some corner besides the all-high one.
        let last_high = pts[..pts.len() - 1]
            .iter()
            .filter(|p| p[n - 1] == Value::Num(1.0))
            .count();
        assert!(last_high > n + 1);
    }
}
