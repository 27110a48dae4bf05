//! `rolag-opt` — a pass driver over textual IR, in the spirit of LLVM's
//! `opt`.
//!
//! ```text
//! rolag-opt [PASS...] [OPTIONS] <input.rir | ->
//! ```
//!
//! Passes come from the `rolag-passes` registry, either as legacy `-name`
//! flags (`-rolag -unroll=4 -cse ...`, applied in flag order) or as one
//! `--passes` pipeline spec (`--passes "unroll<4>,cleanup,rolag"`). The
//! two spellings desugar to the same pipeline and produce byte-identical
//! output; `--list-passes` prints the registry. The full pass table in
//! `--help` is generated from the registry, so it cannot drift from the
//! implementation.
//!
//! Input may be native `.rir` text, `.rlir` binary (recognised by its
//! `RLIR` magic bytes, whatever the extension), or a supported subset of
//! LLVM textual IR (`--frontend=llvm`, or auto-detected). LLVM functions
//! outside the subset are skipped per function with a reason code, never
//! a module-fatal error. `--corpus` switches to streaming-corpus mode:
//! the input is a directory, concatenated corpus file, `RLCP` container,
//! or NDJSON manifest, rolled in bounded batches under `--mem-budget`.
//!
//! Options:
//!
//! ```text
//!   --passes <spec>            run a textual pipeline, e.g. "unroll<4>,cleanup,rolag"
//!   --list-passes              print the registered passes and exit
//!   --frontend <auto|rir|llvm> input format (default auto: magic bytes,
//!                              extension, then content heuristics)
//!   --emit <text|binary|llvm>  output format (default text)
//!   -o <path>                  write output to <path> instead of stdout
//!   --corpus <path>            roll a streaming corpus in bounded batches
//!   --mem-budget <N[K|M|G]>    corpus-mode peak-memory budget (default 1G)
//!   --target <x86-64|thumb2>   cost-model target for profitability
//!   --measure                  print measured section sizes before/after
//!   --stats                    print pass statistics (per-stage timings,
//!                              fixpoint cache counters, driver cache
//!                              counters, and analysis-cache hit rates)
//!   --jobs <N>                 run rolag through the parallel memoizing
//!                              driver with N workers (0 = all cores)
//!   --search <strategy>        alignment search strategy for every rolag
//!                              pass: greedy (default), beam:<k>, or
//!                              beam:<k>:<d> (beam width k, rollout depth d)
//!   --serve <socket>           client mode: submit the module to a running
//!                              rolag-serve daemon instead of rolling
//!                              locally, and print the returned module
//!                              (the preset is the only roll setting it
//!                              sends, so local passes, --jobs, --search,
//!                              --target and --validate-rewrites are
//!                              refused with it)
//!   --serve-options <preset>   options preset for --serve: the presets of
//!                              the `rolag<preset>` pass (absent: default)
//!   --validate-rewrites        prove every rolling rewrite with the
//!                              rolag-tv translation validator before the
//!                              cost model may commit it
//!   --time-passes              print per-pass wall time
//!   --print-changed            dump the IR after every pass that changed it
//!   --verify-each              verify between passes (on by default; flag
//!                              kept for symmetry with rolag-verify)
//!   --interp <func>            interpret <func>() after the passes
//!   --check                    interpret before AND after, compare outcomes
//!   --quiet                    do not print the final module
//!   --verify-only              parse + verify, print diagnostics, exit
//!   --dump-align               print each candidate's alignment graph in
//!                              Graphviz dot syntax instead of transforming
//! ```
//!
//! Exit status: 0 on success, 1 on usage/parse/verify errors, 2 when
//! `--check` detects a behaviour change (a miscompile).

use std::io::{Read, Write};
use std::process::ExitCode;

use rolag::{RolagOptions, SearchConfig};
use rolag_analysis::cost::TargetKind;
use rolag_frontend::corpus::{
    open_corpus, parse_mem_budget, roll_corpus, ContainerWriter, CorpusOptions,
};
use rolag_frontend::{emit::emit_llvm, FrontendKind, Skip};
use rolag_ir::interp::{check_equivalence, IValue, Interpreter};
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_ir::{encode_module, Module};
use rolag_lower::measure_module;
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassOutcome, PassRegistry,
};

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum EmitKind {
    #[default]
    Text,
    Binary,
    Llvm,
}

#[derive(Debug, Default)]
struct Cli {
    frontend: FrontendKind,
    emit: EmitKind,
    output: Option<String>,
    corpus: Option<String>,
    mem_budget: Option<u64>,
    /// Pipeline elements desugared from legacy `-name` flags, in order.
    legacy: Vec<String>,
    /// The `--passes` spec, verbatim.
    spec: Option<String>,
    input: Option<String>,
    target: Option<TargetKind>,
    jobs: Option<usize>,
    search: Option<SearchConfig>,
    serve: Option<String>,
    serve_options: Option<String>,
    validate_rewrites: bool,
    measure: bool,
    stats: bool,
    time_passes: bool,
    print_changed: bool,
    list_passes: bool,
    interp: Option<String>,
    check: bool,
    quiet: bool,
    verify_only: bool,
    dump_align: bool,
}

fn usage() -> String {
    format!(
        "usage: rolag-opt [PASS...] [OPTIONS] <input.rir | ->\n\
         passes (as -name flags applied in order, or one --passes spec):\n\
         {passes}\
         options: --passes <spec> --list-passes --frontend <auto|rir|llvm> \
         --emit <text|binary|llvm> -o <path> --corpus <path> \
         --mem-budget <N[K|M|G]> --target <x86-64|thumb2> \
         --jobs <N> --search <greedy|beam:k[:d]> \
         --serve <socket> --serve-options <preset> \
         --validate-rewrites --measure --stats --time-passes \
         --print-changed --verify-each --interp <func> --check --quiet \
         --verify-only\n\
         (run with a .rir/.rlir/.ll file, or `-` to read from stdin)",
        passes = PassRegistry::builtin().help_passes()
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--passes" => {
                let spec = it.next().ok_or("--passes needs a pipeline spec")?;
                if cli.spec.replace(spec.clone()).is_some() {
                    return Err("more than one --passes spec".into());
                }
            }
            "--list-passes" => cli.list_passes = true,
            "--frontend" => {
                let f = it.next().ok_or("--frontend needs a value")?;
                cli.frontend = FrontendKind::from_flag(f)
                    .ok_or_else(|| format!("unknown frontend {f} (auto, rir, llvm)"))?;
            }
            "--emit" => {
                let e = it.next().ok_or("--emit needs a value")?;
                cli.emit = match e.as_str() {
                    "text" | "rir" => EmitKind::Text,
                    "binary" | "rlir" => EmitKind::Binary,
                    "llvm" | "ll" => EmitKind::Llvm,
                    other => return Err(format!("unknown emit format {other}")),
                };
            }
            "-o" | "--output" => {
                let p = it.next().ok_or("-o needs a path")?;
                if cli.output.replace(p.clone()).is_some() {
                    return Err("more than one -o".into());
                }
            }
            "--corpus" => {
                let p = it.next().ok_or("--corpus needs a path")?;
                if cli.corpus.replace(p.clone()).is_some() {
                    return Err("more than one --corpus".into());
                }
            }
            "--mem-budget" => {
                let v = it.next().ok_or("--mem-budget needs a value")?;
                cli.mem_budget = Some(parse_mem_budget(v)?);
            }
            "--target" => {
                let t = it.next().ok_or("--target needs a value")?;
                cli.target = Some(match t.as_str() {
                    "x86-64" | "x86_64" => TargetKind::X86_64,
                    "thumb2" | "thumb" => TargetKind::Thumb2,
                    other => return Err(format!("unknown target {other}")),
                });
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.jobs = Some(v.parse().map_err(|_| format!("bad job count {v}"))?);
            }
            "--search" => {
                let v = it
                    .next()
                    .ok_or("--search needs a strategy (greedy, beam:<k>, beam:<k>:<d>)")?;
                cli.search = Some(SearchConfig::parse(v)?);
            }
            "--serve" => {
                cli.serve = Some(it.next().ok_or("--serve needs a socket path")?.clone());
            }
            "--serve-options" => {
                let preset = it.next().ok_or("--serve-options needs a preset")?;
                RolagOptions::preset(preset)?;
                cli.serve_options = Some(preset.clone());
            }
            "--validate-rewrites" => cli.validate_rewrites = true,
            "--measure" => cli.measure = true,
            "--stats" => cli.stats = true,
            "--time-passes" => cli.time_passes = true,
            "--print-changed" => cli.print_changed = true,
            // Verification between passes is always on (the legacy
            // behaviour); accepted so scripts can say it explicitly.
            "--verify-each" => {}
            "--check" => cli.check = true,
            "--quiet" => cli.quiet = true,
            "--verify-only" => cli.verify_only = true,
            "--dump-align" => cli.dump_align = true,
            "--interp" => {
                cli.interp = Some(it.next().ok_or("--interp needs a function")?.clone());
            }
            "-h" | "--help" => return Err(usage()),
            s if s.starts_with("-unroll=") => {
                // Validated here so legacy spellings keep legacy errors.
                let raw = &s["-unroll=".len()..];
                let n: u32 = raw
                    .parse()
                    .map_err(|_| format!("bad unroll factor in {s}"))?;
                if n < 2 {
                    return Err("unroll factor must be >= 2".into());
                }
                cli.legacy.push(format!("unroll<{n}>"));
            }
            s if s.len() > 1
                && s.starts_with('-')
                && !s.starts_with("--")
                && PassRegistry::builtin().find(&s[1..]).is_some() =>
            {
                cli.legacy.push(s[1..].to_string());
            }
            s if !s.starts_with('-') || s == "-" => {
                if cli.input.replace(s.to_string()).is_some() {
                    return Err("more than one input file".into());
                }
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if cli.spec.is_some() && !cli.legacy.is_empty() {
        return Err(format!(
            "cannot mix --passes with legacy pass flags (-{} ...)",
            cli.legacy[0]
        ));
    }
    if cli.serve.is_some() {
        if cli.spec.is_some() || !cli.legacy.is_empty() {
            return Err("--serve submits to the daemon's rolag pipeline; \
                        it cannot be combined with local passes"
                .into());
        }
        // A request carries only the module and a preset: refuse every
        // roll setting the daemon would silently drop.
        let dropped = [
            ("--jobs", cli.jobs.is_some()),
            ("--search", cli.search.is_some()),
            ("--target", cli.target.is_some()),
            ("--validate-rewrites", cli.validate_rewrites),
        ];
        if let Some((flag, _)) = dropped.iter().find(|(_, given)| *given) {
            return Err(format!(
                "{flag} cannot be combined with --serve: a request carries only \
                 the module and an options preset (--serve-options)"
            ));
        }
    }
    if cli.serve_options.is_some() && cli.serve.is_none() {
        return Err("--serve-options needs --serve".into());
    }
    if cli.corpus.is_some() {
        if cli.spec.is_some() || !cli.legacy.is_empty() {
            return Err("--corpus rolls batches through the parallel driver; \
                        it cannot be combined with a pass pipeline"
                .into());
        }
        if cli.serve.is_some() {
            return Err("--corpus cannot be combined with --serve".into());
        }
        if cli.input.is_some() {
            return Err("--corpus replaces the positional input".into());
        }
    } else if cli.mem_budget.is_some() {
        return Err("--mem-budget needs --corpus".into());
    }
    if cli.input.is_none() && !cli.list_passes && cli.corpus.is_none() {
        return Err(usage());
    }
    Ok(cli)
}

fn read_input(path: &str) -> Result<Vec<u8>, String> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Renders a frontend diagnostic with its source caret when the input is
/// text.
fn render_diag(d: &rolag_frontend::Diagnostic, bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => d.render(text),
        Err(_) => d.to_string(),
    }
}

/// One warning line per skipped function, with file:line:col spans.
fn report_skips(origin: &str, skips: &[Skip]) {
    for s in skips {
        if s.line == 0 {
            eprintln!(
                "{origin}: warning: skipped @{} [{}]: {}",
                s.symbol,
                s.code.code(),
                s.detail
            );
        } else {
            eprintln!(
                "{origin}:{}:{}: warning: skipped @{} [{}]: {}",
                s.line,
                s.col,
                s.symbol,
                s.code.code(),
                s.detail
            );
        }
    }
}

/// Serializes the module per `--emit` and writes it to `-o` (or stdout).
fn write_module(module: &Module, emit: EmitKind, dest: Option<&str>) -> Result<(), String> {
    let bytes = match emit {
        EmitKind::Text => print_module(module).into_bytes(),
        EmitKind::Binary => encode_module(module),
        EmitKind::Llvm => emit_llvm(module).into_bytes(),
    };
    match dest {
        None | Some("-") => std::io::stdout()
            .write_all(&bytes)
            .map_err(|e| format!("writing stdout: {e}")),
        Some(path) => std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}")),
    }
}

/// Client mode: submit the module text to a running `rolag-serve` daemon
/// over its unix socket and return the rolled module text plus the
/// request's stat line.
fn serve_client(socket: &str, text: &str, options: &str) -> Result<(String, String), String> {
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;

    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("connecting {socket}: {e}"))?;
    let request = rolag_serve::proto::Request::Roll {
        id: "rolag-opt".into(),
        module: text.to_string(),
        options: options.to_string(),
        client: Some("rolag-opt".into()),
    };
    stream
        .write_all(format!("{}\n", request.render()).as_bytes())
        .map_err(|e| format!("writing request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("reading response: {e}"))?;
    let reply = rolag_serve::proto::parse_reply(&line)?;
    if !reply.ok {
        return Err(reply.error.unwrap_or_else(|| "request failed".into()));
    }
    let module = reply.module.ok_or("response has no module")?;
    let stats = format!(
        "serve: {} functions, {} store hits, {} misses, rolled {}, {:.2} ms \
         (cumulative hit rate {:.1}%)",
        reply.functions,
        reply.store_hits,
        reply.store_misses,
        reply.rolled,
        reply.wall_ns as f64 / 1e6,
        100.0 * reply.cumulative_hit_rate
    );
    Ok((module, stats))
}

/// Builds and prints the alignment graph of every rolling candidate in the
/// module, as Graphviz `dot`.
fn dump_alignment_graphs(module: &Module) {
    let opts = RolagOptions::with_extensions();
    for id in module.func_ids() {
        let func = module.func(id);
        if func.is_declaration {
            continue;
        }
        let candidates = rolag::collect_candidates(module, func, &opts);
        for (k, cand) in candidates.iter().enumerate() {
            let mut attempt = func.clone();
            let lanes = cand.lanes();
            let mut builder =
                rolag::GraphBuilder::new(module, &mut attempt, cand.block(), &opts, lanes);
            let built = match cand {
                rolag::Candidate::Seeds { groups, .. } => {
                    groups.iter().all(|g| builder.build_seed_root(g).is_some())
                }
                rolag::Candidate::Reduction {
                    opcode,
                    internal,
                    leaves,
                    carry,
                    ty,
                    ..
                } => builder
                    .build_reduction_root(*opcode, internal.clone(), leaves, *carry, *ty)
                    .is_some(),
            };
            if !built {
                continue;
            }
            let graph = builder.finish();
            println!("// @{} candidate {k} ({lanes} lanes)", func.name);
            print!("{}", graph.to_dot());
        }
    }
}

/// Synthesizes deterministic arguments for an entry point: integers get
/// 37, floats 1.5, and pointers the address of the module's first global
/// (or a scratch address when there is none).
fn default_args(module: &Module, entry: &str) -> Vec<IValue> {
    let Some(id) = module.func_by_name(entry) else {
        return Vec::new();
    };
    let func = module.func(id);
    func.param_tys()
        .iter()
        .map(|&ty| {
            if module.types.is_ptr(ty) {
                let interp = Interpreter::new(module);
                match module.global_ids().next() {
                    Some(g) => IValue::Ptr(interp.global_addr(g)),
                    None => IValue::Ptr(64),
                }
            } else if module.types.is_float(ty) {
                IValue::Float(1.5)
            } else {
                IValue::Int(37)
            }
        })
        .collect()
}

/// Prints one pass's recorded stat lines (the exact text the legacy
/// single-purpose drivers emitted).
fn print_outcome_stats(outcome: &PassOutcome) {
    for line in &outcome.lines {
        eprintln!("{line}");
    }
}

fn print_changed_ir(outcome: &PassOutcome, index: usize) {
    match (&outcome.changed, &outcome.ir_after) {
        (Some(true), Some(ir)) => {
            eprintln!("*** IR after pass {index} `{}` ***", outcome.name);
            eprint!("{ir}");
        }
        (Some(false), _) => {
            eprintln!("*** pass {index} `{}` made no changes ***", outcome.name);
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    if cli.list_passes {
        print!("{}", PassRegistry::builtin().help_passes());
        return ExitCode::SUCCESS;
    }

    if let Some(corpus_path) = cli.corpus.clone() {
        return run_corpus(&cli, &corpus_path);
    }

    // Resolve the pipeline before touching the input so spec errors are
    // reported even for a missing file.
    let spec_text = match &cli.spec {
        Some(s) => s.clone(),
        None => cli.legacy.join(","),
    };
    let pipeline = if spec_text.is_empty() {
        Vec::new()
    } else {
        match PassRegistry::builtin().parse_pipeline(&spec_text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}", e.render("<passes>", &spec_text));
                return ExitCode::from(1);
            }
        }
    };

    let input = cli.input.as_deref().expect("validated");
    let bytes = match read_input(input) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(1);
        }
    };
    let display_path = if input == "-" { "<stdin>" } else { input };
    let frontend = cli.frontend.frontend_for(display_path, &bytes);
    let parsed = match frontend.parse(&bytes, display_path) {
        Ok(r) => r,
        Err(d) => {
            eprintln!("{}", render_diag(&d, &bytes));
            return ExitCode::from(1);
        }
    };
    report_skips(display_path, &parsed.skips);
    let skips = parsed.skips;
    let mut module = parsed.module;
    if let Err(errors) = verify_module(&module) {
        for e in &errors {
            eprintln!("verify: {e}");
        }
        return ExitCode::from(1);
    }
    if cli.verify_only {
        eprintln!("ok: module verifies");
        return ExitCode::SUCCESS;
    }
    if cli.dump_align {
        dump_alignment_graphs(&module);
        return ExitCode::SUCCESS;
    }

    if let Some(socket) = &cli.serve {
        let preset = cli
            .serve_options
            .as_deref()
            .unwrap_or(RolagOptions::DEFAULT_PRESET);
        // The daemon speaks native text; render whatever frontend parsed.
        let text = print_module(&module);
        match serve_client(socket, &text, preset) {
            Ok((rolled, stats)) => {
                if cli.stats {
                    eprintln!("{stats}");
                }
                if !cli.quiet {
                    print!("{rolled}");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("serve: error: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let original = module.clone();
    let before = measure_module(&module);

    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each: true,
        print_changed: cli.print_changed,
    });
    pm.add_all(pipeline);
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(cli.target.unwrap_or_default());
    cx.jobs = cli.jobs;
    cx.validate_rewrites = cli.validate_rewrites;
    cx.search = cli.search;

    let report = match pm.run(&mut module, &mut am, &mut cx) {
        Ok(report) => report,
        Err(err) => {
            // Stat lines of the passes that did run, then the verifier's
            // diagnostics for the offending one.
            if cli.stats {
                for outcome in &err.completed {
                    print_outcome_stats(outcome);
                }
            }
            for e in &err.errors {
                eprintln!("verify after {}: {e}", err.pass);
            }
            return ExitCode::from(1);
        }
    };

    if cli.stats {
        for outcome in &report.outcomes {
            print_outcome_stats(outcome);
        }
        eprintln!("analysis: {}", report.cache);
        for (counter, n) in report.cache.rows() {
            eprintln!("  analysis {counter:<17} {n:>10}");
        }
        eprintln!("  frontend skipped        {:>10}", skips.len());
        let mut reasons: std::collections::BTreeMap<&str, u64> = Default::default();
        for s in &skips {
            *reasons.entry(s.code.code()).or_insert(0) += 1;
        }
        for (code, n) in reasons {
            eprintln!("  skip {code:<21} {n:>10}");
        }
    }
    if cli.print_changed {
        for (i, outcome) in report.outcomes.iter().enumerate() {
            print_changed_ir(outcome, i);
        }
    }
    if cli.time_passes {
        let total: u128 = report.outcomes.iter().map(|o| o.wall_ns).sum();
        eprintln!("time-passes:");
        for outcome in &report.outcomes {
            eprintln!(
                "  {name:<12} {ms:>10.3} ms",
                name = outcome.name,
                ms = outcome.wall_ns as f64 / 1e6
            );
        }
        eprintln!(
            "  {name:<12} {ms:>10.3} ms",
            name = "total",
            ms = total as f64 / 1e6
        );
    }

    if cli.measure {
        let after = measure_module(&module);
        eprintln!(
            "measure: text {} -> {} B, rodata {} -> {} B, data {} -> {} B (footprint {} -> {})",
            before.text,
            after.text,
            before.rodata,
            after.rodata,
            before.data,
            after.data,
            before.code_footprint(),
            after.code_footprint()
        );
    }

    if let Some(entry) = &cli.interp {
        let args = default_args(&module, entry);
        if cli.check {
            match check_equivalence(&original, &module, entry, &args) {
                Ok(()) => eprintln!("check: behaviour preserved"),
                Err(msg) => {
                    eprintln!("check: MISCOMPILE: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
        let mut interp = Interpreter::new(&module);
        match interp.run(entry, &args) {
            Ok(out) => eprintln!(
                "interp: @{entry}() = {:?} after {} dynamic instructions",
                out.ret, out.steps
            ),
            Err(e) => {
                eprintln!("interp: fault: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if cli.output.is_some() || !cli.quiet {
        if let Err(msg) = write_module(&module, cli.emit, cli.output.as_deref()) {
            eprintln!("error: {msg}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// Streaming-corpus mode: roll every module under `--corpus` in bounded
/// batches and print a whole-corpus summary.
fn run_corpus(cli: &Cli, path: &str) -> ExitCode {
    let opts = RolagOptions {
        validate: cli.validate_rewrites,
        target: cli.target.unwrap_or_default(),
        search: cli.search.unwrap_or_default(),
        ..Default::default()
    };
    let copts = CorpusOptions {
        mem_budget: cli.mem_budget.unwrap_or(1 << 30),
        jobs: cli.jobs.unwrap_or(0),
        memoize: true,
        frontend: cli.frontend,
    };
    let items = match open_corpus(std::path::Path::new(path)) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: opening corpus {path}: {e}");
            return ExitCode::from(1);
        }
    };

    enum Sink {
        None,
        Text(Box<dyn Write>, EmitKind),
        Container(ContainerWriter<Box<dyn Write>>),
    }
    let mut sink = match &cli.output {
        None => Sink::None,
        Some(dest) => {
            let w: Box<dyn Write> = if dest == "-" {
                Box::new(std::io::stdout())
            } else {
                match std::fs::File::create(dest) {
                    Ok(f) => Box::new(std::io::BufWriter::new(f)),
                    Err(e) => {
                        eprintln!("error: creating {dest}: {e}");
                        return ExitCode::from(1);
                    }
                }
            };
            match cli.emit {
                EmitKind::Binary => match ContainerWriter::new(w) {
                    Ok(c) => Sink::Container(c),
                    Err(e) => {
                        eprintln!("error: writing container header: {e}");
                        return ExitCode::from(1);
                    }
                },
                kind => Sink::Text(w, kind),
            }
        }
    };
    let mut sink_err: Option<std::io::Error> = None;
    let report = roll_corpus(items, &opts, &copts, |m, _dr| {
        let res = match &mut sink {
            Sink::None => Ok(()),
            Sink::Text(w, kind) => {
                let text = match kind {
                    EmitKind::Llvm => emit_llvm(m),
                    _ => print_module(m),
                };
                w.write_all(text.as_bytes())
            }
            Sink::Container(c) => c.append(&encode_module(m)),
        };
        if let (Err(e), None) = (res, sink_err.as_ref()) {
            sink_err = Some(e);
        }
    });
    if let Sink::Container(c) = sink {
        if let (Err(e), None) = (c.finish().map(|_| ()), sink_err.as_ref()) {
            sink_err = Some(e);
        }
    }
    if let Some(e) = sink_err {
        eprintln!("error: writing output: {e}");
        return ExitCode::from(1);
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reading corpus: {e}");
            return ExitCode::from(1);
        }
    };
    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    eprintln!(
        "corpus: {} modules ({} parse failures), {} functions ({} changed, {} skipped), {} batches",
        report.items,
        report.parse_failures,
        report.functions,
        report.changed,
        report.skipped,
        report.batches
    );
    eprintln!(
        "corpus: {} bytes saved ({} -> {}), {:.1} funcs/s, peak RSS {:.1} MiB",
        report.bytes_saved(),
        report.stats.size_before,
        report.stats.size_after,
        report.funcs_per_sec(),
        report.peak_rss_bytes as f64 / (1 << 20) as f64
    );
    if cli.stats {
        eprintln!(
            "corpus: rolled {} loops, attempted {}, tv rejected {}, cache hits {}, store hits {}",
            report.stats.rolled,
            report.stats.attempted,
            report.stats.tv_rejected,
            report.cache_hits,
            report.store_hits
        );
        for (code, n) in &report.skip_reasons {
            eprintln!("  skip {code:<21} {n:>10}");
        }
    }
    ExitCode::SUCCESS
}
