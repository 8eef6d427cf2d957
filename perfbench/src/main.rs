//! Benchmark runner: pushes a workload's seeded C programs through the
//! calls a `purec --run` user triggers (`purec::chain::compile`,
//! `ChainOutput::program`, `Program::run`), at 1 thread and at the host's
//! hardware thread count, and checks every run against an independent
//! reference.
//!
//! ```text
//! perfbench --workload <paper_apps|pure_recursion|compile_heavy>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Timed work is scaled to a reference host speed, measured around it by
//! a fixed native kernel (see `perfbench::calib`), so that other tenants'
//! load on a shared host moves the figures less.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced
//! passes for half the time and layer-by-layer traced passes for the
//! other half, probes the runtime's unit costs, prints the per-layer
//! metrics and writes the spans to `bench-out/`. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! run failed its check or a pinned count changed between passes.
//! `--corrupt-reference` spoils every reference, to show that a wrong
//! output fails the benchmark.

use cinterp::{BytecodeProgram, Program, RunResult, RuntimeError};
use perfbench::calib::HostSpeed;
use perfbench::stats::{median, quantile, tail_quantile};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Spec, PROGRAMS};
use perfbench::{probes, sys};
use purec::ChainOutput;
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed passes per phase, however long a pass takes.
const MIN_PASSES: usize = 3;
/// Shortest stretch of runs one timing covers: a program that runs for
/// less is run again, back to back, and the mean of its runs is the
/// timing. A run of a millisecond or two swings with the host from one
/// run to the next.
const MIN_TIMING_MS: f64 = 20.0;
/// N-thread timings per program and pass; the fastest counts. Each
/// parallel region wakes parked workers, and on a busy shared host that
/// wake-up is sometimes fast and sometimes several times slower, in
/// bursts: single `paper_apps` N-thread passes read about 180 or about
/// 320 ms, and the share of slow ones drifted over minutes, moving the
/// median by 30% between sets of runs of one build. The host-speed kernel
/// does not see it. The fastest of three is slow only when all three are.
const PAR_TRIES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_apps|pure_recursion|compile_heavy> \
                     --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.ok_or("missing --trace")?,
        corrupt_reference,
    })
}

/// Checked runs, failures among them, and counts that changed between
/// passes of the same seed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    pinned: BTreeMap<String, u64>,
}

impl Checks {
    fn report(msg: &str) {
        eprintln!("perfbench: {msg}");
    }

    fn run(&mut self, spec: &Spec, threads: usize, res: &Result<RunResult, RuntimeError>) {
        self.attempted += 1;
        let want = &spec.expected;
        let problem = match res {
            Ok(r) if r.exit_code == want.exit_code && r.output == want.stdout => return,
            Ok(r) => format!(
                "exit {} stdout {:?}, expected exit {} stdout {:?}",
                r.exit_code, r.output, want.exit_code, want.stdout
            ),
            Err(e) => e.to_string(),
        };
        self.failed += 1;
        Self::report(&format!("{} at {threads} thread(s): {problem}", spec.name));
    }

    /// A failed compile is one failed attempt.
    fn compile_failed(&mut self, msg: &str) {
        self.attempted += 1;
        self.failed += 1;
        Self::report(msg);
    }

    /// Pin a deterministic count: every later pass must repeat it.
    fn pin(&mut self, program: &str, what: &str, value: u64) {
        let key = format!("{program}.{what}");
        match self.pinned.get(&key) {
            None => {
                self.pinned.insert(key, value);
            }
            Some(&v) if v == value => {}
            Some(&v) => {
                self.mismatches += 1;
                Self::report(&format!("{key} changed between passes: {v} then {value}"));
            }
        }
    }

    fn pin_compile(&mut self, spec: &Spec, out: &ChainOutput) {
        for (what, v) in [
            ("scops_marked", out.scops_marked),
            ("regions_transformed", out.regions_transformed),
            ("regions_parallelized", out.regions_parallelized),
            ("regions_fused", out.regions_fused),
            ("rows_hoisted", out.rows_hoisted),
        ] {
            self.pin(spec.name, what, v as u64);
        }
    }

    fn pin_bytecode(&mut self, spec: &Spec, raw: &BytecodeProgram, opt: &BytecodeProgram) {
        self.pin(spec.name, "insns_raw", raw.insn_count() as u64);
        self.pin(spec.name, "insns_opt", opt.insn_count() as u64);
    }

    /// Executed-op counts and memo probes of a 1-thread run.
    fn pin_seq_run(&mut self, spec: &Spec, r: &RunResult) {
        let c = &r.counters;
        self.pin(spec.name, "ops", c.total());
        self.pin(spec.name, "calls", c.calls);
        self.pin(spec.name, "memo_probes", c.memo_hits + c.memo_misses);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bytecode optimization level of a default run.
fn opt_level() -> u8 {
    cinterp::InterpOptions::default().opt_level
}

/// Compile one program as `purec --run` does: chain, lowering to the VM,
/// and the optimizer's first (cached) pass.
fn compile(spec: &Spec) -> Result<(ChainOutput, Program), String> {
    let out = chain_compile(spec)?;
    let program = out.program();
    black_box(program.bytecode_at(opt_level()));
    Ok((out, program))
}

fn chain_compile(spec: &Spec) -> Result<ChainOutput, String> {
    purec::compile(&spec.source, spec.chain.clone()).map_err(|d| {
        format!(
            "{}: compile failed:\n{}",
            spec.name,
            d.render_all(&spec.source)
        )
    })
}

/// Where the runs happen.
struct Host {
    /// Thread count of the parallel runs: the host's hardware threads.
    threads: usize,
    /// CPUs this process may use, restored after each pinned phase.
    allowed: Vec<usize>,
    /// CPUs the single-threaded work is repeated on (the first `threads`
    /// of `allowed`).
    pinned: Vec<usize>,
}

impl Host {
    fn detect() -> Result<Host, String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let allowed = sys::allowed_cpus()?;
        // Start the process-wide pool before any pinning: its workers
        // inherit the affinity of the thread that starts it.
        machine::global_pool(threads);
        let pinned = allowed.iter().copied().take(threads).collect();
        Ok(Host {
            threads,
            allowed,
            pinned,
        })
    }
}

/// One untraced pass over every program. Times are scaled to the
/// reference host speed (see [`perfbench::calib`]), except `raw_ms` and
/// the CPU time `cpu_par_ms`.
#[derive(Default)]
struct Sample {
    compile_ms: f64,
    run_seq_ms: f64,
    run_par_ms: f64,
    cpu_par_ms: f64,
    seq_by_program: BTreeMap<&'static str, f64>,
    par_by_program: BTreeMap<&'static str, f64>,
    /// Compile plus both runs, as measured: the work one pass does.
    raw_ms: f64,
    /// Every time the host-speed kernel took during the pass.
    kernel_ms: Vec<f64>,
}

/// For each CPU of `host.pinned` in turn: with the main thread pinned
/// to it, compile every program and run it at 1 thread; then unpin, with
/// the main thread still on that CPU, and run every program at
/// `host.threads` threads. Times are averaged over the CPUs. On a shared
/// host one CPU can run at half speed for seconds while another does
/// not; a lone thread samples only one of them, and the average over all
/// of them is what a run placed on any CPU can expect. Each program's
/// compile and runs are scaled by the host speed measured around them.
fn pass(specs: &[Spec], host: &Host, checks: &mut Checks) -> Result<Sample, String> {
    let mut s = Sample::default();
    let mut programs = Vec::new();
    for &cpu in &host.pinned {
        sys::set_affinity(&[cpu])?;
        programs.clear();
        let mut speed = HostSpeed::start(&[cpu])?;
        for spec in specs {
            let t = Instant::now();
            let built = compile(spec);
            let compile_ms = ms(t);
            let (out, program) = match built {
                Ok(b) => b,
                Err(e) => {
                    checks.compile_failed(&e);
                    continue;
                }
            };
            checks.pin_compile(spec, &out);

            let (seq_ms, _) = timed_runs(spec, &program, 1, |seq| {
                checks.run(spec, 1, seq);
                if let Ok(r) = seq {
                    checks.pin_seq_run(spec, r);
                }
            });
            let scale = speed.scale()?;
            s.raw_ms += compile_ms + seq_ms;
            s.compile_ms += compile_ms * scale;
            s.run_seq_ms += seq_ms * scale;
            *s.seq_by_program.entry(spec.name).or_default() += seq_ms * scale;
            programs.push((spec, program));
        }
        s.kernel_ms.extend(speed.kernel_ms);

        // The N-thread runs are not pinned, as a user's are not: pinning
        // the main thread while it waits for a region's workers slowed
        // `paper_apps`' regions by a third and made them bimodal. They use
        // every CPU, so the host speed is measured on all of them.
        sys::set_affinity(&host.allowed)?;
        let mut speed = HostSpeed::start(&host.pinned)?;
        for (spec, program) in &programs {
            let mut check = |par: &_| checks.run(spec, host.threads, par);
            let (par_ms, cpu_ms) = (0..PAR_TRIES)
                .map(|_| timed_runs(spec, program, host.threads, &mut check))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("PAR_TRIES is positive");
            let scale = speed.scale()?;
            s.cpu_par_ms += cpu_ms;
            s.raw_ms += par_ms;
            s.run_par_ms += par_ms * scale;
            *s.par_by_program.entry(spec.name).or_default() += par_ms * scale;
        }
        s.kernel_ms.extend(speed.kernel_ms);
    }
    let n = host.pinned.len() as f64;
    for v in [
        &mut s.raw_ms,
        &mut s.compile_ms,
        &mut s.run_seq_ms,
        &mut s.run_par_ms,
        &mut s.cpu_par_ms,
    ] {
        *v /= n;
    }
    for v in s
        .seq_by_program
        .values_mut()
        .chain(s.par_by_program.values_mut())
    {
        *v /= n;
    }
    Ok(s)
}

/// Run `program` at `threads` threads until the runs add up to at least
/// [`MIN_TIMING_MS`], handing each result to `check`. Returns the mean
/// wall time and the mean process CPU time of one run, in milliseconds.
fn timed_runs(
    spec: &Spec,
    program: &Program,
    threads: usize,
    mut check: impl FnMut(&Result<RunResult, RuntimeError>),
) -> (f64, f64) {
    let (mut wall_ms, mut cpu_ms, mut runs) = (0.0, 0.0, 0);
    while runs == 0 || wall_ms < MIN_TIMING_MS {
        let cpu = sys::process_cpu_ms();
        let t = Instant::now();
        let res = program.run(spec.interp(threads));
        wall_ms += ms(t);
        cpu_ms += sys::process_cpu_ms() - cpu;
        runs += 1;
        check(&res);
    }
    (wall_ms / runs as f64, cpu_ms / runs as f64)
}

/// Build the workload's programs and references, then run one checked
/// warm-up pass (which also starts the process-wide pool).
fn setup(args: &Args, host: &Host, checks: &mut Checks) -> Result<Vec<Spec>, String> {
    let mut specs = workloads::build(&args.workload, args.seed)?;
    if args.corrupt_reference {
        for s in &mut specs {
            s.expected.stdout.push_str("corrupted\n");
        }
    }
    pass(&specs, host, checks)?;
    Ok(specs)
}

/// Untraced passes until `budget` has elapsed (at least [`MIN_PASSES`]).
fn timed_passes(
    specs: &[Spec],
    host: &Host,
    budget: Duration,
    checks: &mut Checks,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || start.elapsed() < budget {
        samples.push(pass(specs, host, checks)?);
    }
    Ok(samples)
}

/// Named metric values with their units, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::Num(*value)),
                            ("unit".into(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// The timed end-to-end metrics, as (name, per-pass value).
fn timed_columns(samples: &[Sample]) -> [(&'static str, Vec<f64>); 3] {
    [
        ("compile_ms", column(samples, |s| s.compile_ms)),
        ("run_seq_ms", column(samples, |s| s.run_seq_ms)),
        ("run_par_ms", column(samples, |s| s.run_par_ms)),
    ]
}

fn end_to_end(setup_s: &[f64], samples: &[Sample], checks: &Checks) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    for (name, col) in timed_columns(samples) {
        m.put(name, median(&col), "ms");
    }
    m.put("peak_rss_mib", sys::peak_rss_mib()?, "MiB");
    let ok = checks.attempted - checks.failed;
    m.put("ok_frac", ok as f64 / checks.attempted as f64, "ratio");
    Ok(m)
}

/// Everything one traced pass measured, summed over the programs.
#[derive(Default)]
struct Traced {
    layer_ms: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
    wall_ms: f64,
}

/// One pass that calls each layer's public function under its own span.
fn traced_pass(specs: &[Spec], threads: usize, tracer: &mut Tracer, checks: &mut Checks) -> Traced {
    let root = tracer.spans().len();
    let start = Instant::now();
    let mut counts = BTreeMap::new();
    tracer.span("pass", |tr| {
        for spec in specs {
            tr.span(spec.name, |tr| {
                traced_program(spec, threads, tr, checks, &mut counts)
            });
        }
    });
    let wall_ms = ms(start);
    let layer_ms = tracer
        .totals_under(root)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Traced {
        layer_ms,
        counts,
        wall_ms,
    }
}

fn add(counts: &mut BTreeMap<String, f64>, name: &str, v: u64) {
    *counts.entry(name.to_string()).or_insert(0.0) += v as f64;
}

fn traced_program(
    spec: &Spec,
    threads: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
    counts: &mut BTreeMap<String, f64>,
) {
    let pc_cc = &spec.chain.pc_cc;

    // The front half of the chain, stage by stage, on this program.
    let pp = tr.span("cprep.preprocess", |_| {
        cprep::preprocess(&spec.source, &pc_cc.includes)
    });
    add(counts, "cfront.src_bytes", pp.text.len() as u64);
    let parsed = tr.span("cfront.parse", |_| cfront::parser::parse(&pp.text));
    let mut unit = parsed.unit;
    let purity = tr.span("core.verify", |_| {
        purec_core::verify_unit(&unit, pc_cc.seed.clone())
    });
    add(counts, "core.pure_fns", purity.declared_pure.len() as u64);
    let scops = tr.span("core.mark_scops", |_| {
        purec_core::mark_scops(&mut unit, &purity.pure_set)
    });
    add(counts, "core.scops_marked", scops.marked as u64);
    let subst = tr.span("core.subst", |_| {
        purec_core::substitute_calls(&mut unit, &purity.pure_set)
    });
    let poly = tr.span("polyhedral.polycc", |_| {
        polyhedral::run_polycc(&mut unit, spec.chain.polycc.clone())
    });
    // Pinned under the chain's keys: the stage called on its own must
    // decide exactly as it does inside the chain.
    let transformed = poly.transformed_count();
    for (what, v) in [
        ("regions_transformed", transformed),
        ("regions_parallelized", poly.parallelized_count()),
        ("regions_skipped", poly.regions.len() - transformed),
        ("regions_fused", poly.fused),
        ("rows_hoisted", poly.rows_hoisted),
    ] {
        checks.pin(spec.name, what, v as u64);
        add(counts, &format!("polyhedral.{what}"), v as u64);
    }
    // Reinsertion, `pure` lowering, printing and PC-PosPro. The chain
    // reinserts region by region with adapted iterators; this public
    // entry does the same work with one identity map.
    tr.span("purec.lower", |_| {
        purec_core::finish(unit, &subst, &Default::default(), &pp.system_includes)
    });

    // The whole chain, then the back half on its output.
    let out = match tr.span("purec.compile", |_| chain_compile(spec)) {
        Ok(out) => out,
        Err(e) => {
            checks.compile_failed(&e);
            return;
        }
    };
    checks.pin_compile(spec, &out);
    let reparsed = tr.span("cfront.reparse", |_| cfront::parser::parse(&out.text));
    let mut verified = pc_cc.seed.clone();
    for name in &out.declared_pure {
        verified.insert(name.clone());
    }
    let analysis = tr.span("analysis.analyze", |_| {
        analysis::analyze_unit(&reparsed.unit, &verified, &Default::default())
    });
    for l in &analysis.loops {
        match l.verdict {
            analysis::LoopVerdict::Independent => add(counts, "analysis.loops_independent", 1),
            analysis::LoopVerdict::Unknown => add(counts, "analysis.loops_unknown", 1),
            analysis::LoopVerdict::Racy => {}
        }
    }
    let resolved = tr.span("cinterp.resolve_lower", |_| {
        cinterp::resolve::lower_unit(&out.unit, &out.verified_pure_set(), &out.verdicts)
    });
    let raw = tr.span("cinterp.bytecode_lower", |_| {
        BytecodeProgram::compile(&resolved)
    });
    let program = tr.span("cinterp.program", |_| out.program());
    let opt = tr.span("cinterp.opt", |_| program.bytecode_at(opt_level()));
    checks.pin_bytecode(spec, &raw, &opt);
    add(counts, "cinterp.insns_raw", raw.insn_count() as u64);
    add(counts, "cinterp.insns_opt", opt.insn_count() as u64);

    let seq = tr.span("cinterp.run_seq", |_| program.run(spec.interp(1)));
    checks.run(spec, 1, &seq);
    if let Ok(r) = &seq {
        checks.pin_seq_run(spec, r);
        let c = &r.counters;
        add(counts, "cinterp.ops", c.total());
        add(counts, "cinterp.calls", c.calls);
        add(counts, "cinterp.insns_fused", c.insns_fused);
        add(counts, "cinterp.insns_folded", c.insns_folded);
        add(counts, "cinterp.icache_hits", c.icache_hits);
        add(counts, "cinterp.memo_probes", c.memo_hits + c.memo_misses);
        add(counts, "cinterp.memo_hits", c.memo_hits);
        add(counts, "cinterp.memo_evictions", c.memo_evictions);
    }
    let par = tr.span("cinterp.run_par", |_| program.run(spec.interp(threads)));
    checks.run(spec, threads, &par);
    if let Ok(r) = &par {
        let c = &r.counters;
        add(counts, "cinterp.futures_spawned", c.futures_spawned);
        add(counts, "cinterp.futures_inlined", c.futures_inlined);
        add(counts, "cinterp.futures_helped", c.futures_helped);
        add(counts, "cinterp.tasks_stolen", c.tasks_stolen);
        add(counts, "cinterp.local_pushes", c.local_pushes);
    }
}

/// Metric columns of a traced run, in `BENCHMARK.json`'s order.
const LAYER_TIMES: [&str; 11] = [
    "cprep.preprocess",
    "cfront.parse",
    "cfront.reparse",
    "core.verify",
    "core.mark_scops",
    "core.subst",
    "polyhedral.polycc",
    "analysis.analyze",
    "purec.lower",
    "cinterp.resolve_lower",
    "cinterp.bytecode_lower",
];

/// Counts reported as the median over traced passes, with their units.
/// The futures, help, steal and local-push counts depend on scheduling;
/// the rest repeat exactly (and the pinned ones are checked to).
const LAYER_COUNTS: [(&str, &str); 24] = [
    ("cfront.src_bytes", "bytes"),
    ("core.pure_fns", "count"),
    ("core.scops_marked", "count"),
    ("analysis.loops_independent", "count"),
    ("analysis.loops_unknown", "count"),
    ("polyhedral.regions_transformed", "count"),
    ("polyhedral.regions_parallelized", "count"),
    ("polyhedral.regions_skipped", "count"),
    ("polyhedral.regions_fused", "count"),
    ("polyhedral.rows_hoisted", "count"),
    ("cinterp.insns_raw", "count"),
    ("cinterp.insns_opt", "count"),
    ("cinterp.ops", "count"),
    ("cinterp.calls", "count"),
    ("cinterp.insns_fused", "count"),
    ("cinterp.insns_folded", "count"),
    ("cinterp.icache_hits", "count"),
    ("cinterp.memo_probes", "count"),
    ("cinterp.memo_evictions", "count"),
    ("cinterp.futures_spawned", "count"),
    ("cinterp.futures_inlined", "count"),
    ("cinterp.futures_helped", "count"),
    ("cinterp.tasks_stolen", "count"),
    ("cinterp.local_pushes", "count"),
];

fn per_layer(untraced: &[Sample], traced: &[Traced], threads: usize) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let layer = |name: &str| {
        median(
            &traced
                .iter()
                .map(|t| t.layer_ms.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let count = |name: &str| {
        median(
            &traced
                .iter()
                .map(|t| t.counts.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };

    for name in LAYER_TIMES {
        m.put(format!("{name}_ms"), layer(name), "ms");
    }
    m.put("cinterp.opt_ms", layer("cinterp.opt"), "ms");
    for (name, unit) in LAYER_COUNTS {
        m.put(name, count(name), unit);
    }
    let probes_n = count("cinterp.memo_probes");
    m.put(
        "cinterp.memo_hit_ratio",
        ratio(count("cinterp.memo_hits"), probes_n),
        "ratio",
    );
    let spawned = count("cinterp.futures_spawned");
    m.put(
        "cinterp.futures_admit_ratio",
        ratio(spawned, spawned + count("cinterp.futures_inlined")),
        "ratio",
    );
    m.put(
        "cinterp.ns_per_op",
        ratio(layer("cinterp.run_seq") * 1e6, count("cinterp.ops")),
        "ns",
    );

    m.put(
        "machine.region_launch_us",
        probes::region_launch_us(threads),
        "us",
    );
    m.put(
        "machine.future_roundtrip_us",
        probes::future_roundtrip_us(threads),
        "us",
    );
    m.put(
        "machine.spawn_decline_ns",
        probes::spawn_decline_ns(threads)?,
        "ns",
    );

    for program in PROGRAMS {
        let col = |by: fn(&Sample) -> &BTreeMap<&'static str, f64>| -> Vec<f64> {
            untraced
                .iter()
                .filter_map(|s| by(s).get(program).copied())
                .collect()
        };
        let seq = median(&col(|s| &s.seq_by_program));
        let par = median(&col(|s| &s.par_by_program));
        m.put(format!("cinterp.run_seq_ms.{program}"), seq, "ms");
        m.put(format!("cinterp.run_par_ms.{program}"), par, "ms");
    }

    // CPU time of the parallel runs has no end-to-end bound: it doubles or
    // halves between runs of the same build as awaiting workers happen to
    // spin while helping, or not.
    let cpu = column(untraced, |s| s.cpu_par_ms);
    m.put("bench.cpu_par_ms", median(&cpu), "ms");
    let kernel: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.kernel_ms.iter().copied())
        .collect();
    m.put("bench.host_kernel_ms", median(&kernel), "ms");
    let q = tail_quantile(untraced.len());
    for (name, col) in timed_columns(untraced)
        .into_iter()
        .chain([("cpu_par_ms", cpu)])
    {
        m.put(format!("tail.{name}"), quantile(&col, q), "ms");
    }
    m.put("bench.tail_quantile", q, "quantile");
    m.put("bench.samples", untraced.len() as f64, "count");
    m.put("bench.threads", threads as f64, "count");
    // One traced pass compiles and runs each program once, so it
    // compares with the per-CPU average of an untraced pass; neither is
    // scaled to the host speed.
    let untraced_ms = median(&column(untraced, |s| s.raw_ms));
    let traced_ms = median(&traced.iter().map(|t| t.wall_ms).collect::<Vec<_>>());
    m.put(
        "bench.traced_overhead",
        ratio(traced_ms, untraced_ms),
        "ratio",
    );
    let share = |s: &Sample| ratio(s.compile_ms, s.compile_ms + s.run_seq_ms + s.run_par_ms);
    m.put(
        "bench.compile_share",
        median(&column(untraced, share)),
        "ratio",
    );
    Ok(m)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("bench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let host = Host::detect()?;
    let mut checks = Checks::default();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut specs = Vec::new();
    let mut speed = HostSpeed::start(&host.pinned)?;
    for _ in 0..setups {
        let t = Instant::now();
        specs = setup(args, &host, &mut checks)?;
        setup_s.push(t.elapsed().as_secs_f64() * speed.scale()?);
    }

    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        let samples = timed_passes(&specs, &host, budget, &mut checks)?;
        let metrics = end_to_end(&setup_s, &samples, &checks)?;
        return Ok((checks, metrics));
    }

    let untraced = timed_passes(&specs, &host, budget / 2, &mut checks)?;
    let mut tracer = Tracer::default();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_PASSES || start.elapsed() < budget / 2 {
        traced.push(traced_pass(&specs, host.threads, &mut tracer, &mut checks));
    }
    let metrics = per_layer(&untraced, &traced, host.threads)?;
    write_trace(args, &tracer)?;
    Ok((checks, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (checks, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(checks.correct())),
        ("attempted".into(), Value::Num(checks.attempted as f64)),
        ("failed".into(), Value::Num(checks.failed as f64)),
        ("metrics".into(), metrics.json()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("rendering a JSON value cannot fail")
    );
    if !checks.correct() {
        std::process::exit(1);
    }
}
