//! Workspace-level tests for the `rolag-passes` pipeline layer: spec
//! parsing round-trips, pointed diagnostics, and — the refactor's core
//! contract — byte-identical output between textual pipelines run under
//! the pass manager and the legacy direct `*_module` call chains, over
//! the checked-in difftest repro corpus and a TSVC slice.

use std::path::Path;

use rolag::{roll_module, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassRegistry, PipelineSpec,
    RunReport, TargetKind,
};
use rolag_reroll::reroll_module;
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, flatten_module, unroll_module};

/// Every `.rir` file of a checked-in directory, parsed, in name order.
fn rir_modules(dir: &str) -> Vec<(String, Module)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rir"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (name, parse_module(&text).expect("checked-in module parses"))
        })
        .collect()
}

fn repro_modules() -> Vec<(String, Module)> {
    let modules = rir_modules("tests/repros");
    assert!(modules.len() >= 4, "repro corpus went missing");
    modules
}

fn run_managed(module: &mut Module, spec: &str) -> RunReport {
    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each: true,
        print_changed: false,
    });
    pm.add_all(PassRegistry::builtin().parse_pipeline(spec).unwrap());
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(TargetKind::default());
    pm.run(module, &mut am, &mut cx)
        .unwrap_or_else(|e| panic!("`{spec}` failed verification after `{}`", e.pass))
}

// ---------------------------------------------------------------- parsing

#[test]
fn spec_round_trips_through_display() {
    for messy in [
        " unroll<4> , cleanup,rolag ,flatten, cleanup ",
        "rolag",
        "unroll<16>,cse,dce",
    ] {
        let spec = PipelineSpec::parse(messy).unwrap();
        let canonical = spec.to_string();
        assert!(!canonical.contains(' '), "canonical form: {canonical}");
        let again = PipelineSpec::parse(&canonical).unwrap();
        assert_eq!(canonical, again.to_string(), "round-trip changed the spec");
        assert_eq!(spec.elements.len(), again.elements.len());
    }
}

#[test]
fn spec_records_offsets_for_diagnostics() {
    let spec = PipelineSpec::parse("unroll<4>,cleanup").unwrap();
    assert_eq!(spec.elements[0].offset, 0);
    assert_eq!(spec.elements[0].param.as_deref(), Some("4"));
    assert_eq!(spec.elements[1].offset, 10);
    assert_eq!(spec.elements[1].param, None);
}

#[test]
fn malformed_specs_point_at_the_problem() {
    for (text, needle) in [
        ("", "empty pipeline spec"),
        ("rolag,", "trailing comma"),
        ("rolag,,cse", "empty pipeline element"),
        ("unroll<4", "missing `>`"),
        ("cse rolag", "unexpected character"),
    ] {
        let err = PipelineSpec::parse(text).expect_err(text);
        assert!(
            err.message.contains(needle),
            "`{text}` gave: {}",
            err.message
        );
        let rendered = err.render("<passes>", text);
        assert!(rendered.starts_with("<passes>:1:"), "{rendered}");
        assert!(rendered.contains('^'), "no caret in:\n{rendered}");
    }
}

#[test]
fn registry_rejects_unknown_and_bad_parameters() {
    let reg = PassRegistry::builtin();
    let parse_err = |text: &str| match reg.parse_pipeline(text) {
        Ok(_) => panic!("`{text}` unexpectedly parsed"),
        Err(e) => e,
    };
    let err = parse_err("rolag,flattn");
    assert!(err.message.contains("unknown pass `flattn`"), "{err}");
    assert!(err.message.contains("did you mean `flatten`"), "{err}");

    for (text, needle) in [
        ("unroll", "needs a factor"),
        ("unroll<x>", "expected an integer"),
        ("unroll<0>", "at least 2"),
        ("unroll<1>", "at least 2"),
        ("cse<3>", "takes no parameter"),
    ] {
        let err = parse_err(text);
        assert!(
            err.message.contains(needle),
            "`{text}` gave: {}",
            err.message
        );
    }
}

// ------------------------------------------------------- legacy equivalence

/// Each textual pipeline, run under the manager with `verify_each`, must
/// produce byte-for-byte the module the legacy direct calls produce, on
/// the repro corpus and the first 24 TSVC kernels. The `unroll<8>` case is
/// the evaluation pipeline the TSVC figures run.
#[test]
fn managed_pipelines_match_direct_calls_on_the_repro_corpus() {
    type Direct = fn(&mut Module);
    let cases: [(&str, Direct); 5] = [
        ("unroll<8>,cse,cleanup,rolag,flatten,cleanup", |m| {
            unroll_module(m, 8);
            cse_module(m);
            cleanup_module(m);
            roll_module(m, &RolagOptions::default());
            flatten_module(m);
            cleanup_module(m);
        }),
        ("rolag", |m| {
            roll_module(m, &RolagOptions::default());
        }),
        ("unroll<4>,cse,cleanup,rolag,flatten,cleanup", |m| {
            unroll_module(m, 4);
            cse_module(m);
            cleanup_module(m);
            roll_module(m, &RolagOptions::default());
            flatten_module(m);
            cleanup_module(m);
        }),
        ("reroll,cleanup", |m| {
            reroll_module(m);
            cleanup_module(m);
        }),
        ("unroll<2>,cse,rolag", |m| {
            unroll_module(m, 2);
            cse_module(m);
            roll_module(m, &RolagOptions::default());
        }),
    ];
    let tsvc = all_kernels()
        .into_iter()
        .take(24)
        .map(|spec| (format!("tsvc.{}", spec.name), build_kernel_module(&spec)));
    for (name, module) in repro_modules().into_iter().chain(tsvc) {
        for (spec, direct) in &cases {
            let mut a = module.clone();
            direct(&mut a);
            let mut b = module.clone();
            run_managed(&mut b, spec);
            assert_eq!(
                print_module(&a),
                print_module(&b),
                "`{spec}` diverged from direct calls on {name}"
            );
        }
    }
}

/// The pinned result of one pipeline over one corpus: FNV-1a-64 digests
/// of the printed modules and of every pass's stat lines, each fed in
/// corpus order.
#[derive(Debug, PartialEq, Eq)]
struct PipelinePin {
    spec: &'static str,
    corpus: &'static str,
    module_digest: u64,
    lines_digest: u64,
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Pins the managed pipelines' output bytes and stat lines: the five
/// specs above, `flatten` alone and `cse,cleanup,cse`, over the repro
/// corpus, all 151 TSVC kernels and `examples/ir`. Unlike the
/// direct-call comparison, this holds the manager to fixed bytes, so it
/// still means something once a port calls the very `*_module` function
/// the comparison would run. A rolag pass notes no lines (its stat lines
/// are rendered from its records, timings included), so its outcome adds
/// nothing to the lines digest.
///
/// To regenerate after an intended behaviour change, run
/// `cargo test --test pipeline_spec managed_pipelines_are_pinned -- --nocapture`
/// and paste the printed table over `PIPELINE_PINS`.
#[test]
fn managed_pipelines_are_pinned() {
    const SPECS: [&str; 7] = [
        "unroll<8>,cse,cleanup,rolag,flatten,cleanup",
        "rolag",
        "unroll<4>,cse,cleanup,rolag,flatten,cleanup",
        "reroll,cleanup",
        "unroll<2>,cse,rolag",
        "flatten",
        "cse,cleanup,cse",
    ];
    let tsvc: Vec<(String, Module)> = all_kernels()
        .into_iter()
        .map(|spec| (format!("tsvc.{}", spec.name), build_kernel_module(&spec)))
        .collect();
    assert_eq!(tsvc.len(), 151, "TSVC suite changed size");
    let corpora: [(&'static str, Vec<(String, Module)>); 3] = [
        ("repros", repro_modules()),
        ("tsvc", tsvc),
        ("examples", rir_modules("examples/ir")),
    ];
    let mut actual = Vec::new();
    for spec in SPECS {
        for (corpus, modules) in &corpora {
            let mut module_digest = 0xcbf2_9ce4_8422_2325;
            let mut lines_digest = 0xcbf2_9ce4_8422_2325;
            for (_, module) in modules {
                let mut m = module.clone();
                let report = run_managed(&mut m, spec);
                fnv1a(&mut module_digest, print_module(&m).as_bytes());
                for line in report.outcomes.iter().flat_map(|o| &o.lines) {
                    fnv1a(&mut lines_digest, line.as_bytes());
                    fnv1a(&mut lines_digest, b"\n");
                }
            }
            actual.push(PipelinePin {
                spec,
                corpus,
                module_digest,
                lines_digest,
            });
        }
    }
    println!("const PIPELINE_PINS: &[PipelinePin] = &{actual:#?};");
    assert_eq!(
        actual.as_slice(),
        PIPELINE_PINS,
        "managed pipeline output or stat lines moved"
    );
}

const PIPELINE_PINS: &[PipelinePin] = &[
    PipelinePin {
        spec: "unroll<8>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 920582211185582899,
    },
    PipelinePin {
        spec: "unroll<8>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "tsvc",
        module_digest: 9222237614522478926,
        lines_digest: 13540565317739525748,
    },
    PipelinePin {
        spec: "unroll<8>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "examples",
        module_digest: 2993321559750984547,
        lines_digest: 7647461442144612250,
    },
    PipelinePin {
        spec: "rolag",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 14695981039346656037,
    },
    PipelinePin {
        spec: "rolag",
        corpus: "tsvc",
        module_digest: 1516952121783671608,
        lines_digest: 14695981039346656037,
    },
    PipelinePin {
        spec: "rolag",
        corpus: "examples",
        module_digest: 9134491332406968760,
        lines_digest: 14695981039346656037,
    },
    PipelinePin {
        spec: "unroll<4>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 8698281104618619535,
    },
    PipelinePin {
        spec: "unroll<4>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "tsvc",
        module_digest: 16092688348311465515,
        lines_digest: 15648911922075663567,
    },
    PipelinePin {
        spec: "unroll<4>,cse,cleanup,rolag,flatten,cleanup",
        corpus: "examples",
        module_digest: 2993321559750984547,
        lines_digest: 16325298073463676462,
    },
    PipelinePin {
        spec: "reroll,cleanup",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 17521809029004305570,
    },
    PipelinePin {
        spec: "reroll,cleanup",
        corpus: "tsvc",
        module_digest: 6700067033760383108,
        lines_digest: 7605405541675330725,
    },
    PipelinePin {
        spec: "reroll,cleanup",
        corpus: "examples",
        module_digest: 7316034026432373409,
        lines_digest: 14035322033049549994,
    },
    PipelinePin {
        spec: "unroll<2>,cse,rolag",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 13136053477584790113,
    },
    PipelinePin {
        spec: "unroll<2>,cse,rolag",
        corpus: "tsvc",
        module_digest: 3424557496390972965,
        lines_digest: 9574050479821022879,
    },
    PipelinePin {
        spec: "unroll<2>,cse,rolag",
        corpus: "examples",
        module_digest: 15387786206791076995,
        lines_digest: 7899085810545432980,
    },
    PipelinePin {
        spec: "flatten",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 2757927485647510301,
    },
    PipelinePin {
        spec: "flatten",
        corpus: "tsvc",
        module_digest: 6700067033760383108,
        lines_digest: 9733664656420276493,
    },
    PipelinePin {
        spec: "flatten",
        corpus: "examples",
        module_digest: 7316034026432373409,
        lines_digest: 17774978770666553541,
    },
    PipelinePin {
        spec: "cse,cleanup,cse",
        corpus: "repros",
        module_digest: 174479602294278541,
        lines_digest: 653922738794701485,
    },
    PipelinePin {
        spec: "cse,cleanup,cse",
        corpus: "tsvc",
        module_digest: 16758708968903062255,
        lines_digest: 4328455607751677293,
    },
    PipelinePin {
        spec: "cse,cleanup,cse",
        corpus: "examples",
        module_digest: 7316034026432373409,
        lines_digest: 17572061824457881413,
    },
];

/// The registry's legacy rolag names and the preset each one aliases.
const ALIAS_ROWS: [(&str, &str); 3] = [
    ("rolag-ext", "extended"),
    ("no-special", "no-special"),
    ("tv", "validated"),
];

/// Every preset, spelled `rolag<name>` (and bare `rolag` for the default),
/// every legacy alias row, and a direct `roll_module` under
/// `RolagOptions::preset(name)` print identically on the repro corpus.
#[test]
fn registry_engine_variants_match_option_spellings() {
    let mut spellings: Vec<(String, &str)> = vec![("rolag".into(), RolagOptions::DEFAULT_PRESET)];
    for (preset, _) in RolagOptions::PRESETS {
        spellings.push((format!("rolag<{preset}>"), preset));
    }
    for (alias, preset) in ALIAS_ROWS {
        spellings.push((alias.into(), preset));
    }
    // The alias list is the registry's: no row aliases a preset unchecked.
    for info in PassRegistry::builtin().infos() {
        if info.summary.starts_with("alias of rolag<") {
            assert!(
                ALIAS_ROWS.iter().any(|(alias, _)| *alias == info.name),
                "alias row `{}` is not covered",
                info.name
            );
        }
    }
    for (name, module) in repro_modules() {
        for (spec, preset) in &spellings {
            let mut a = module.clone();
            roll_module(&mut a, &RolagOptions::preset(preset).unwrap());
            let mut b = module.clone();
            run_managed(&mut b, spec);
            assert_eq!(
                print_module(&a),
                print_module(&b),
                "`{spec}` diverged from preset `{preset}` on {name}"
            );
        }
    }

    let spec = "cse,rolag<turbo>";
    let err = match PassRegistry::builtin().parse_pipeline(spec) {
        Ok(_) => panic!("`{spec}` unexpectedly parsed"),
        Err(e) => e,
    };
    assert_eq!(err.offset, spec.find("turbo").unwrap(), "{err}");
    assert!(
        err.message.contains("unknown options preset `turbo`"),
        "{err}"
    );
}

// ------------------------------------------------------------- drift guard

/// Every pass the registry knows must be documented in the README, and
/// the generated `--help` table must cover every registered pass — the
/// docs can't silently drift from the code.
#[test]
fn every_registered_pass_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let help = PassRegistry::builtin().help_passes();
    for info in PassRegistry::builtin().infos() {
        assert!(
            help.contains(info.name),
            "`{}` missing from the generated help",
            info.name
        );
        assert!(
            readme.contains(info.name) || design.contains(info.name),
            "pass `{}` is not mentioned in README.md or DESIGN.md",
            info.name
        );
    }
}

/// The translation validator's declared abstractions are API: DESIGN.md
/// documents each one by name, and this guard keeps the list and the
/// docs from drifting apart.
#[test]
fn every_tv_abstraction_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    for name in rolag_tv::ABSTRACTIONS {
        assert!(
            design.contains(name),
            "validator abstraction `{name}` is not documented in DESIGN.md"
        );
    }
}
