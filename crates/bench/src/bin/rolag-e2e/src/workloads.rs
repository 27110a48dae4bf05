//! The five workloads: their inputs, the timed path each drives, and the
//! correctness gate over what that path produced.
//!
//! Inputs are fixed (generator seeds below), so code-size metrics repeat
//! exactly across runs; `--seed` draws the module order of each round,
//! the serve request stream, and the functions the gate interprets. The
//! corpus order is fixed too: it decides which functions share a batch,
//! and with that the batch latencies.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rolag::{DriverReport, RolagOptions, RolagStats};
use rolag_frontend::corpus::{
    open_corpus, roll_corpus, ContainerWriter, CorpusItem, CorpusOptions,
};
use rolag_frontend::native::NativeFrontend;
use rolag_frontend::Frontend;
use rolag_ir::interp::{check_equivalence, IValue, Interpreter};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::Module;
use rolag_lower::measure_module;
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassRegistry, TargetKind,
};
use rolag_serve::json::{parse, Json};
use rolag_serve::proto::Request;
use rolag_serve::{Server, ServerConfig};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::programs::{build_program, TABLE1};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

use crate::speed::Speed;
use crate::stats::{median, zipf_stream, SplitMix64};
use crate::trace::{Open, Tracer};

/// Worker threads for every parallel layer. Pinned rather than sized
/// from the core count, which would change corpus batching per machine.
pub const JOBS: usize = 2;
/// Generator seed of the AnghaBench-like functions (corpus and serve).
const ANGHA_SEED: u64 = 0x0a17_4a90;
/// Generator seed of the Table I programs.
const PROGRAM_SEED: u64 = 1;
/// Memory budget of the corpus run.
const CORPUS_MEM_BUDGET: u64 = 256 << 20;
/// Cross-request store capacity of the serve run: a third of its
/// 400-module working set, so hits, misses and evictions all occur.
const SERVE_CAPACITY: usize = 128;
/// Seed of the serve pool's popularity order (module of each zipf rank).
const POPULARITY_SEED: u64 = 0x5e7e;
/// Interpreter step limit under which a sampled function's original must
/// finish before the gate compares it.
const STEP_LIMIT: u64 = 2_000_000;
/// Functions interpreted per module (table1) or per batch (corpus).
const SAMPLES_PER_MODULE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tsvc,
    TsvcBeam4,
    AnghaCorpus,
    Table1,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Tsvc,
        Workload::TsvcBeam4,
        Workload::AnghaCorpus,
        Workload::Table1,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tsvc => "tsvc",
            Workload::TsvcBeam4 => "tsvc-beam4",
            Workload::AnghaCorpus => "angha-corpus",
            Workload::Table1 => "table1",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds for `seconds` of measurement. Each round replays the same
    /// units: every module once, one corpus pass, or one serve session.
    /// The rates were sized on one CPU of a 2-vCPU x86-64 machine so a run
    /// measures about `seconds` there (`tsvc` and `tsvc-beam4` about half
    /// of it, the corpus passes about twice); they are constants so that
    /// two commits run at the same `--seconds` do the same work.
    pub fn rounds(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::Tsvc => 6.0,
            Workload::TsvcBeam4 => 1.2,
            Workload::AnghaCorpus => 0.3,
            Workload::Table1 => 0.3,
            Workload::ServeZipf => 0.3,
        };
        ((seconds as f64 * per_second).ceil() as usize).max(2)
    }

    /// Generates the inputs (timed as `setup.inputs_s`), then builds the
    /// program state and runs one untimed warm-up module through it
    /// (`setup.program_s`).
    pub fn setup(self, size: &Size, scratch: &Path) -> io::Result<Setup> {
        let start = Instant::now();
        let inputs = match self {
            Workload::Tsvc | Workload::TsvcBeam4 => tsvc_modules(size.tsvc_kernels),
            Workload::Table1 => TABLE1
                .iter()
                .take(size.table1_programs)
                .map(|spec| {
                    let m = build_program(spec, PROGRAM_SEED, size.table1_scale);
                    opt_module(spec.name, None, &m)
                })
                .collect(),
            Workload::AnghaCorpus => angha_modules(size.angha_functions),
            Workload::ServeZipf => {
                let mut pool = tsvc_modules(size.tsvc_kernels);
                pool.extend(angha_modules(size.serve_angha + 1));
                pool
            }
        };
        let container = match self {
            Workload::AnghaCorpus => Some(write_container(&inputs, scratch)?),
            _ => None,
        };
        let inputs_s = start.elapsed().as_secs_f64();
        let mut bench: Box<dyn Bench> = match (self, container) {
            (Workload::AnghaCorpus, Some(path)) => Box::new(CorpusBench::new(inputs, path)),
            (Workload::ServeZipf, _) => Box::new(ServeBench::new(inputs, size.serve_requests)),
            _ => Box::new(OptBench::new(inputs, self == Workload::TsvcBeam4)),
        };
        bench.warm_up()?;
        Ok(Setup {
            bench,
            inputs_s,
            program_s: start.elapsed().as_secs_f64() - inputs_s,
        })
    }
}

/// Input sizes: [`Size::FULL`] is the benchmark, the test module's smoke
/// size a seconds-long version of it.
pub struct Size {
    pub tsvc_kernels: usize,
    pub angha_functions: usize,
    pub table1_programs: usize,
    pub table1_scale: f64,
    pub serve_angha: usize,
    pub serve_requests: usize,
}

impl Size {
    /// 151 TSVC kernels; 1,000 corpus functions; the 21 Table I programs
    /// at scale 0.1; a 400-module serve pool (151 kernels + 249 functions)
    /// with 1,600 requests per session.
    pub const FULL: Size = Size {
        tsvc_kernels: usize::MAX,
        angha_functions: 1000,
        table1_programs: usize::MAX,
        table1_scale: 0.1,
        serve_angha: 249,
        serve_requests: 1600,
    };
}

pub struct Setup {
    pub bench: Box<dyn Bench>,
    pub inputs_s: f64,
    pub program_s: f64,
}

/// What one timed pass measured. Every round replays the same units
/// (modules, corpus batches, serve requests). Each sample is scaled to the
/// nominal machine speed (see `speed`), and a unit's latency is the median
/// of its scaled samples over the rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per sample: unit, start (nanoseconds since the `speed` epoch) and
    /// latency.
    samples: Vec<(usize, u64, u64)>,
    /// Reference samples, taken between units.
    speed: Speed,
    /// Function definitions per unit.
    pub unit_functions: Vec<u64>,
    /// Function definitions attempted over all rounds.
    pub functions: u64,
    /// One entry per failed function, module, request or mismatch.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records that `unit` ran from `start` until now.
    fn record(&mut self, unit: usize, start: Instant, functions: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.samples.push((unit, self.speed.at(start), ns));
        if unit >= self.unit_functions.len() {
            self.unit_functions.resize(unit + 1, 0);
        }
        self.unit_functions[unit] = functions;
        self.functions += functions;
    }

    /// Every unit's latency: the median of its samples at the nominal
    /// speed.
    pub fn unit_ns(&self) -> Vec<u64> {
        let mut per_unit = vec![Vec::new(); self.unit_functions.len()];
        for &(unit, start, ns) in &self.samples {
            per_unit[unit].push(self.speed.scale(start, ns) as f64);
        }
        per_unit.iter().map(|v| median(v) as u64).collect()
    }

    /// Functions per second of one round at every unit's latency.
    pub fn funcs_per_s(&self) -> f64 {
        let ns: u64 = self.unit_ns().iter().sum();
        self.unit_functions.iter().sum::<u64>() as f64 / (ns as f64 / 1e9)
    }
}

/// Outcome of the correctness gate.
#[derive(Debug, Default)]
pub struct Check {
    pub failures: Vec<String>,
    /// Outputs compared against their input by the interpreter.
    pub interpreted: u64,
    pub text_in: u64,
    pub text_out: u64,
    pub footprint_in: u64,
    pub footprint_out: u64,
}

impl Check {
    /// Verifies `output`, adds both sides' sizes, and interprets `kernel`
    /// (a TSVC entry point) or a seeded sample of scalar-argument
    /// functions against `input`.
    fn compare(
        &mut self,
        label: &str,
        input: &Module,
        output: &str,
        kernel: Option<&str>,
        samples: usize,
        rng: &mut SplitMix64,
    ) {
        let output = match parse_module(output) {
            Ok(m) => m,
            Err(e) => return self.fail(format!("{label}: output does not parse: {e:?}")),
        };
        if let Err(errors) = verify_module(&output) {
            return self.fail(format!("{label}: output does not verify: {}", errors[0]));
        }
        let (a, b) = (measure_module(input), measure_module(&output));
        self.text_in += a.text;
        self.text_out += b.text;
        self.footprint_in += a.code_footprint();
        self.footprint_out += b.code_footprint();
        let entries: Vec<(String, Vec<IValue>)> = match kernel {
            Some(k) => vec![(k.to_string(), Vec::new())],
            None => sample_scalar_functions(input, samples, rng),
        };
        for (name, args) in entries {
            self.interpreted += 1;
            if let Err(msg) = check_equivalence(input, &output, &name, &args) {
                self.fail(format!("{label}: @{name} changed behaviour: {msg}"));
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }
}

/// Definitions whose parameters are all integers or floats and whose
/// original finishes within [`STEP_LIMIT`] on the arguments `rolag-opt
/// --interp` uses (37 and 1.5); at most `n`, drawn by `rng`.
fn sample_scalar_functions(
    m: &Module,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<(String, Vec<IValue>)> {
    let mut candidates: Vec<_> = m
        .func_ids()
        .filter(|&id| !m.func(id).is_declaration)
        .filter_map(|id| {
            let f = m.func(id);
            let args = f.param_tys().iter().map(|&t| {
                if m.types.is_int(t) {
                    Some(IValue::Int(37))
                } else if m.types.is_float(t) {
                    Some(IValue::Float(1.5))
                } else {
                    None
                }
            });
            Some((f.name.clone(), args.collect::<Option<Vec<_>>>()?))
        })
        .collect();
    rng.shuffle(&mut candidates);
    candidates
        .into_iter()
        .filter(|(name, args)| {
            Interpreter::new(m)
                .with_max_steps(STEP_LIMIT)
                .run(name, args)
                .is_ok()
        })
        .take(n)
        .collect()
}

/// A workload's program state between setup and the gate.
pub trait Bench {
    /// One untimed module through the whole path, so lazy set-up is done
    /// before timing starts.
    fn warm_up(&mut self) -> io::Result<()>;
    /// Runs `rounds` rounds; the same seed replays the same work. Each
    /// output is compared with the first output of the same input after
    /// its unit, outside the unit's timed window.
    fn run(&mut self, rounds: usize, seed: u64, tr: &Tracer, tally: &mut Tally);
    /// The correctness gate and the code-size measurement.
    fn check(&mut self, seed: u64) -> Check;
}

/// One input module.
struct OptModule {
    name: String,
    /// TSVC entry point, interpreted whole by the gate.
    kernel: Option<&'static str>,
    text: String,
    functions: u64,
}

fn opt_module(name: &str, kernel: Option<&'static str>, m: &Module) -> OptModule {
    OptModule {
        name: name.to_string(),
        kernel,
        text: print_module(m),
        functions: m
            .func_ids()
            .filter(|&id| !m.func(id).is_declaration)
            .count() as u64,
    }
}

/// The TSVC kernels, unrolled x8 and cleaned up as in §V-C.
fn tsvc_modules(n: usize) -> Vec<OptModule> {
    all_kernels()
        .into_iter()
        .take(n)
        .map(|spec| {
            let mut m = build_kernel_module(&spec);
            unroll_module(&mut m, 8);
            cse_module(&mut m);
            cleanup_module(&mut m);
            opt_module(spec.name, Some(spec.name), &m)
        })
        .collect()
}

fn angha_modules(n: usize) -> Vec<OptModule> {
    let config = AnghaConfig {
        seed: ANGHA_SEED,
        functions: n,
    };
    stream(&config)
        .map(|(name, _, m)| opt_module(&name, None, &m))
        .collect()
}

/// Keeps the first output per input and reports later ones that differ.
fn same_as_first(first: &mut Option<String>, output: String, label: &str) -> Option<String> {
    match first {
        None => {
            *first = Some(output);
            None
        }
        Some(prev) if *prev != output => Some(format!("{label}: output differs from its first")),
        Some(_) => None,
    }
}

fn record_engine(tr: &Tracer, span: &Open, s: &RolagStats) {
    let t = &s.timings;
    let secs = |ns: u64| ns as f64 / 1e9;
    for (key, value) in [
        ("rolag.seeds_s", secs(t.seeds_ns)),
        ("rolag.align_s", secs(t.align_ns)),
        ("rolag.schedule_s", secs(t.schedule_ns)),
        ("rolag.codegen_s", secs(t.codegen_ns)),
        ("rolag.tv_s", secs(t.tv_ns)),
        ("rolag.cost_s", secs(t.cost_ns)),
        ("rolag.cleanup_s", secs(t.cleanup_ns)),
        ("rolag.track_s", secs(t.track_ns)),
        ("rolag.attempted", s.attempted as f64),
        ("rolag.rolled", s.rolled as f64),
        ("rolag.rejected_lanes", s.rejected_lanes as f64),
        ("rolag.rejected_schedule", s.rejected_schedule as f64),
        ("rolag.rejected_profit", s.rejected_profit as f64),
        ("rolag.tv_validated", s.tv_validated as f64),
        ("rolag.tv_rejected", s.tv_rejected as f64),
        ("rolag.rescued", s.rescued as f64),
        ("rolag.memo_hits", s.cache.memo_hits as f64),
        ("rolag.memo_misses", s.cache.memo_misses as f64),
        (
            "rolag.cand_blocks_reused",
            s.cache.cand_blocks_reused as f64,
        ),
        (
            "rolag.cand_blocks_scanned",
            s.cache.cand_blocks_scanned as f64,
        ),
        (
            "rolag.size_blocks_reused",
            s.cache.size_blocks_reused as f64,
        ),
        (
            "rolag.size_blocks_computed",
            s.cache.size_blocks_computed as f64,
        ),
        ("rolag.search.explored", s.search.explored as f64),
        ("rolag.search.pruned", s.search.pruned as f64),
        ("rolag.search.tv_rejected", s.search.tv_rejected as f64),
        ("rolag.search.adopted", s.search.adopted as f64),
    ] {
        tr.count(span, key, value);
    }
}

/// Attaches a driver report, and the engine statistics inside it, to the
/// span the report was returned in.
fn record_driver(tr: &Tracer, span: &Open, d: &DriverReport) {
    for (key, value) in [
        ("rolag.driver_s", d.wall_ns as f64 / 1e9),
        ("rolag.driver.functions", d.functions as f64),
        ("rolag.driver.unique", d.unique as f64),
        ("rolag.driver.cache_hits", d.cache_hits as f64),
        ("rolag.driver.changed", d.changed as f64),
        ("rolag.store.hits", d.store_hits as f64),
        ("rolag.store.misses", d.store_misses as f64),
    ] {
        tr.count(span, key, value);
    }
    record_engine(tr, span, &d.stats);
}

/// `tsvc`, `tsvc-beam4` and `table1`: the `rolag-opt --jobs 2` path,
/// module by module.
struct OptBench {
    modules: Vec<OptModule>,
    pipeline: PassManager,
    outputs: Vec<Option<String>>,
}

impl OptBench {
    fn new(modules: Vec<OptModule>, beam: bool) -> Self {
        let spec = if beam { "rolag-search<4>" } else { "rolag" };
        let mut pipeline = PassManager::with_options(PassManagerOptions {
            verify_each: true,
            print_changed: false,
        });
        pipeline.add_all(
            PassRegistry::builtin()
                .parse_pipeline(spec)
                .expect("built-in pipeline spec"),
        );
        let outputs = vec![None; modules.len()];
        OptBench {
            modules,
            pipeline,
            outputs,
        }
    }

    /// Parse → verify → pass manager → print, as `rolag-opt` does.
    fn process(&self, i: usize, tr: &Tracer) -> Result<String, String> {
        let m = &self.modules[i];
        let req = i as u64;
        let parsed = tr
            .span("frontend.parse", req, || {
                NativeFrontend.parse(m.text.as_bytes(), &m.name)
            })
            .map_err(|d| d.to_string())?;
        let mut module = parsed.module;
        tr.span("ir.verify", req, || verify_module(&module))
            .map_err(|e| format!("input does not verify: {}", e[0]))?;
        let mut am = AnalysisManager::new();
        let mut cx = PassContext::new(TargetKind::default());
        cx.jobs = Some(JOBS);
        let run = tr.begin("passes.run", req);
        let report = self.pipeline.run(&mut module, &mut am, &mut cx);
        tr.end(&run);
        let report = report.map_err(|e| format!("verify after {}: {:?}", e.pass, e.errors))?;
        let mut rescued = 0;
        for outcome in &report.outcomes {
            if let Some(d) = &outcome.driver {
                record_driver(tr, &run, d);
                rescued += d.stats.rescued;
            }
        }
        if rescued > 0 {
            return Err(format!(
                "{rescued} function(s) rescued after an engine panic"
            ));
        }
        Ok(tr.span("ir.print", req, || print_module(&module)))
    }
}

impl Bench for OptBench {
    fn warm_up(&mut self) -> io::Result<()> {
        self.process(0, &Tracer::new(false))
            .map(drop)
            .map_err(io::Error::other)
    }

    fn run(&mut self, rounds: usize, seed: u64, tr: &Tracer, tally: &mut Tally) {
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..self.modules.len()).collect();
        for _ in 0..rounds {
            rng.shuffle(&mut order);
            for &i in &order {
                tally.speed.refresh();
                let start = Instant::now();
                let root = tr.begin("module", i as u64);
                let result = self.process(i, tr);
                tr.end(&root);
                tally.record(i, start, self.modules[i].functions);
                let label = &self.modules[i].name;
                match result {
                    Ok(text) => {
                        tally
                            .failures
                            .extend(same_as_first(&mut self.outputs[i], text, label))
                    }
                    Err(e) => tally.failures.push(format!("{label}: {e}")),
                }
            }
        }
    }

    fn check(&mut self, seed: u64) -> Check {
        let mut check = Check::default();
        let mut rng = SplitMix64::new(seed);
        for (m, output) in self.modules.iter().zip(&self.outputs) {
            let input = parse_module(&m.text).expect("generated input parses");
            match output {
                Some(out) => {
                    check.compare(&m.name, &input, out, m.kernel, SAMPLES_PER_MODULE, &mut rng)
                }
                None => check.fail(format!("{}: no output", m.name)),
            }
        }
        check
    }
}

/// Writes the functions, in generator order, to an `RLCP` container
/// under `scratch`.
fn write_container(modules: &[OptModule], scratch: &Path) -> io::Result<PathBuf> {
    let path = scratch.join("angha-corpus.rlcp");
    let file = std::fs::File::create(&path)?;
    let mut w = ContainerWriter::new(io::BufWriter::new(file))?;
    for m in modules.iter() {
        w.append(m.text.as_bytes())?;
    }
    w.finish()?;
    Ok(path)
}

/// `angha-corpus`: `open_corpus` → `roll_corpus` over the container,
/// emitting every batch as text. A unit is one batch: its latency runs
/// from the previous batch's emit (or the pass start) to its own.
struct CorpusBench {
    path: PathBuf,
    warm_up_text: String,
    /// Rolled batches of the first pass, printed.
    outputs: Vec<Option<String>>,
}

fn corpus_options() -> CorpusOptions {
    CorpusOptions {
        mem_budget: CORPUS_MEM_BUDGET,
        jobs: JOBS,
        memoize: true,
        ..CorpusOptions::default()
    }
}

/// Times each `next()` of the container reader as `frontend.read`.
struct TimedItems<'t, I> {
    inner: I,
    tr: &'t Tracer,
    request: u64,
}

impl<I: Iterator<Item = io::Result<CorpusItem>>> Iterator for TimedItems<'_, I> {
    type Item = io::Result<CorpusItem>;

    fn next(&mut self) -> Option<Self::Item> {
        let inner = &mut self.inner;
        self.tr.span("frontend.read", self.request, || inner.next())
    }
}

impl CorpusBench {
    fn new(modules: Vec<OptModule>, path: PathBuf) -> Self {
        CorpusBench {
            path,
            warm_up_text: modules[0].text.clone(),
            outputs: Vec::new(),
        }
    }
}

impl Bench for CorpusBench {
    fn warm_up(&mut self) -> io::Result<()> {
        let item = CorpusItem {
            origin: "warm-up".into(),
            bytes: self.warm_up_text.clone().into_bytes(),
        };
        let opts = RolagOptions::default();
        roll_corpus(
            std::iter::once(Ok(item)),
            &opts,
            &corpus_options(),
            |m, _| {
                print_module(m);
            },
        )
        .map(drop)
    }

    fn run(&mut self, rounds: usize, _seed: u64, tr: &Tracer, tally: &mut Tally) {
        let opts = RolagOptions::default();
        let copts = corpus_options();
        for pass in 0..rounds as u64 {
            let mut batches = Vec::new();
            tally.speed.refresh();
            let mut last = Instant::now();
            let root = tr.begin("pass", pass);
            let result = tr
                .span("frontend.read", pass, || open_corpus(&self.path))
                .and_then(|items| {
                    let items = TimedItems {
                        inner: items,
                        tr,
                        request: pass,
                    };
                    let roll = tr.begin("corpus.roll", pass);
                    let report = roll_corpus(items, &opts, &copts, |m, dr| {
                        let emit = tr.begin("ir.print", pass);
                        batches.push(print_module(m));
                        tr.end(&emit);
                        tally.record(batches.len() - 1, last, dr.functions as u64);
                        record_driver(tr, &emit, dr);
                        // Inside the pass, so traced as a layer of its own.
                        tr.span("bench.calibrate", pass, || tally.speed.refresh());
                        last = Instant::now();
                    });
                    tr.end(&roll);
                    report
                });
            tr.end(&root);
            match result {
                Ok(report) if report.parse_failures > 0 || report.stats.rescued > 0 => {
                    tally.failures.push(format!(
                        "pass {pass}: {} parse failure(s), {} rescued function(s)",
                        report.parse_failures, report.stats.rescued
                    ))
                }
                Ok(_) => {}
                Err(e) => tally.failures.push(format!("pass {pass}: {e}")),
            }
            self.outputs
                .resize(self.outputs.len().max(batches.len()), None);
            for (k, text) in batches.into_iter().enumerate() {
                let label = format!("pass {pass} batch {k}");
                tally
                    .failures
                    .extend(same_as_first(&mut self.outputs[k], text, &label));
            }
        }
    }

    /// Re-reads the container with rolling disabled, which yields the
    /// identical pre-roll batches, and compares each with its rolled batch.
    fn check(&mut self, seed: u64) -> Check {
        let mut check = Check::default();
        let mut rng = SplitMix64::new(seed);
        let no_roll = RolagOptions {
            min_lanes: usize::MAX,
            ..RolagOptions::default()
        };
        let mut batch = 0;
        let outputs = &self.outputs;
        let result = open_corpus(&self.path).and_then(|items| {
            roll_corpus(items, &no_roll, &corpus_options(), |input, _| {
                let label = format!("batch {batch}");
                match outputs.get(batch).and_then(Option::as_ref) {
                    Some(out) => {
                        check.compare(&label, input, out, None, SAMPLES_PER_MODULE, &mut rng)
                    }
                    None => check.fail(format!("{label}: no output")),
                }
                batch += 1;
            })
        });
        if let Err(e) = result {
            check.fail(format!("re-reading the corpus: {e}"));
        }
        if batch != outputs.len() {
            check.fail(format!(
                "{} batches emitted, {batch} re-read",
                outputs.len()
            ));
        }
        check
    }
}

/// `serve-zipf`: one closed-loop client calling `Server::handle_line`.
/// A round is a session: a fresh, warmed-up server (untimed) and the
/// seed's request stream. A unit is one request of the stream.
struct ServeBench {
    modules: Vec<OptModule>,
    lines: Vec<String>,
    warm_up_line: String,
    requests: usize,
    server: Server,
    /// Whether `server` has served no session yet.
    fresh: bool,
    /// The first reply's module text per pool module.
    outputs: Vec<Option<String>>,
}

/// The fields of a roll reply the benchmark reads.
struct Reply {
    module: String,
    rolled: f64,
    attempted: f64,
    store_hits: f64,
    store_misses: f64,
    evictions: f64,
    entries: f64,
}

fn read_reply(line: &str) -> Result<Reply, String> {
    let doc = parse(line)?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or(line);
        return Err(format!("error reply: {error}"));
    }
    let num = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    Ok(Reply {
        module: doc
            .get("module")
            .and_then(Json::as_str)
            .ok_or("reply has no module")?
            .to_string(),
        rolled: num("stats", "rolled"),
        attempted: num("stats", "attempted"),
        store_hits: num("request", "store_hits"),
        store_misses: num("request", "store_misses"),
        evictions: num("cumulative", "evictions"),
        entries: num("cumulative", "entries"),
    })
}

fn roll_line(id: usize, text: &str) -> String {
    Request::Roll {
        id: id.to_string(),
        module: text.to_string(),
        options: "validated".into(),
        client: None,
    }
    .render()
}

fn new_server() -> Server {
    Server::new(&ServerConfig {
        jobs: JOBS,
        capacity: SERVE_CAPACITY,
    })
}

impl ServeBench {
    /// The last module is the warm-up request, outside the request pool.
    fn new(mut modules: Vec<OptModule>, requests: usize) -> Self {
        let warm_up = modules.pop().expect("serve pool plus a warm-up module");
        let lines = modules
            .iter()
            .enumerate()
            .map(|(i, m)| roll_line(i, &m.text))
            .collect();
        let outputs = vec![None; modules.len()];
        ServeBench {
            modules,
            lines,
            warm_up_line: roll_line(usize::MAX, &warm_up.text),
            requests,
            server: new_server(),
            fresh: true,
            outputs,
        }
    }

    fn send(&self, i: usize) -> Result<Reply, String> {
        read_reply(&self.server.handle_line(&self.lines[i]).0)
    }
}

impl Bench for ServeBench {
    fn warm_up(&mut self) -> io::Result<()> {
        let (reply, _) = self.server.handle_line(&self.warm_up_line);
        read_reply(&reply).map(drop).map_err(io::Error::other)
    }

    fn run(&mut self, rounds: usize, seed: u64, tr: &Tracer, tally: &mut Tally) {
        // Which module is how popular is fixed, and so is how often each is
        // requested; the seed draws the order. A seeded popularity order
        // would move the hot set, and seeded counts the hit rate, and with
        // them the latency distribution, from seed to seed.
        let mut by_rank: Vec<usize> = (0..self.modules.len()).collect();
        SplitMix64::new(POPULARITY_SEED).shuffle(&mut by_rank);
        let stream = zipf_stream(
            by_rank.len(),
            1.0,
            self.requests,
            &mut SplitMix64::new(seed),
        );
        for _ in 0..rounds {
            if !self.fresh {
                self.server = new_server();
                if let Err(e) = self.warm_up() {
                    tally.failures.push(format!("warm-up: {e}"));
                }
            }
            self.fresh = false;
            let mut evictions = 0.0;
            for (r, &rank) in stream.iter().enumerate() {
                let i = by_rank[rank];
                tally.speed.refresh();
                let start = Instant::now();
                let root = tr.begin("request", r as u64);
                let handle = tr.begin("serve.handle", r as u64);
                let (line, _) = self.server.handle_line(&self.lines[i]);
                tr.end(&handle);
                tr.end(&root);
                tally.record(r, start, self.modules[i].functions);
                let label = format!("request {r} ({})", self.modules[i].name);
                match read_reply(&line) {
                    Ok(reply) => {
                        for (key, value) in [
                            ("rolag.rolled", reply.rolled),
                            ("rolag.attempted", reply.attempted),
                            ("rolag.store.hits", reply.store_hits),
                            ("rolag.store.misses", reply.store_misses),
                            ("rolag.store.evictions", reply.evictions - evictions),
                            ("rolag.store.entries", reply.entries),
                            ("serve.hit", f64::from(reply.store_misses == 0.0)),
                        ] {
                            tr.count(&handle, key, value);
                        }
                        evictions = reply.evictions;
                        tally.failures.extend(same_as_first(
                            &mut self.outputs[i],
                            reply.module,
                            &label,
                        ));
                    }
                    Err(e) => {
                        tr.count(&handle, "serve.errors", 1.0);
                        tally.failures.push(format!("{label}: {e}"));
                    }
                }
            }
        }
    }

    /// Sends each module the stream never drew once, untimed, so sizes
    /// cover the whole pool whatever the seed; then checks every output.
    fn check(&mut self, seed: u64) -> Check {
        let mut check = Check::default();
        for i in 0..self.modules.len() {
            if self.outputs[i].is_none() {
                match self.send(i) {
                    Ok(reply) => self.outputs[i] = Some(reply.module),
                    Err(e) => check.fail(format!("{}: {e}", self.modules[i].name)),
                }
            }
        }
        let mut rng = SplitMix64::new(seed);
        for (m, output) in self.modules.iter().zip(&self.outputs) {
            let input = parse_module(&m.text).expect("generated input parses");
            if let Some(out) = output {
                check.compare(&m.name, &input, out, m.kernel, 1, &mut rng);
            }
        }
        check
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A seconds-long version of every workload, for unit tests in debug
    /// builds.
    pub const SMOKE: Size = Size {
        tsvc_kernels: 4,
        angha_functions: 12,
        table1_programs: 2,
        table1_scale: 0.002,
        serve_angha: 6,
        serve_requests: 30,
    };

    /// Runs one round of `tsvc` at smoke size, swaps in `alter(output)`
    /// for the first kernel's output, and returns what the gate saw.
    pub fn gate_with_altered_output(alter: impl Fn(&str) -> String) -> (Tally, Check) {
        let mut bench = OptBench::new(tsvc_modules(SMOKE.tsvc_kernels), false);
        bench.warm_up().unwrap();
        let mut tally = Tally::default();
        bench.run(1, 1, &Tracer::new(false), &mut tally);
        let out = bench.outputs[0].take().unwrap();
        bench.outputs[0] = Some(alter(&out));
        (tally, bench.check(1))
    }

    #[test]
    fn the_gate_passes_real_outputs_and_rejects_altered_ones() {
        let (tally, check) = gate_with_altered_output(str::to_string);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert_eq!(check.interpreted, SMOKE.tsvc_kernels as u64);

        // An add turned into a subtract: parses and verifies, but the
        // kernel's final memory differs from its input's.
        let (_, check) = gate_with_altered_output(|out| {
            assert!(out.contains(" = fadd "), "the first kernel adds doubles");
            out.replacen(" = fadd ", " = fsub ", 1)
        });
        assert_eq!(check.failures.len(), 1, "{:?}", check.failures);
        assert!(
            check.failures[0].contains("changed behaviour"),
            "{:?}",
            check.failures
        );

        // Garbage output fails at the parser.
        let (_, check) = gate_with_altered_output(|out| out.replacen("func", "fnuc", 1));
        assert!(
            check.failures[0].contains("does not parse"),
            "{:?}",
            check.failures
        );
    }

    #[test]
    fn a_unit_is_the_median_of_its_rounds() {
        let mut t = Tally::default();
        let start = Instant::now();
        for (unit, ns) in [(1, 300), (0, 100), (1, 200), (0, 500), (0, 400)] {
            t.samples.push((unit, t.speed.at(start), ns));
        }
        t.unit_functions = vec![1, 2];
        // No reference samples, so nothing is scaled.
        assert_eq!(t.unit_ns(), vec![400, 250]);
        // One round of 3 functions in 650 ns.
        assert!((t.funcs_per_s() - 3.0 / 650e-9).abs() < 1e-3);
    }
}
