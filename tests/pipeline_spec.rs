//! Workspace-level tests for the `rolag-passes` pipeline layer: spec
//! parsing round-trips, pointed diagnostics, and — the refactor's core
//! contract — byte-identical output between textual pipelines run under
//! the pass manager and the legacy direct `*_module` call chains, over
//! the checked-in difftest repro corpus.

use std::path::Path;

use rolag::{roll_module, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_passes::{
    AnalysisManager, PassContext, PassManager, PassManagerOptions, PassRegistry, PipelineSpec,
    TargetKind,
};
use rolag_reroll::reroll_module;
use rolag_transforms::{cleanup_module, cse_module, flatten_module, unroll_module};

fn repro_modules() -> Vec<(String, Module)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rir"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "repro corpus went missing");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (name, parse_module(&text).expect("repro parses"))
        })
        .collect()
}

fn run_managed(module: &mut Module, spec: &str) {
    let mut pm = PassManager::with_options(PassManagerOptions {
        verify_each: true,
        print_changed: false,
    });
    pm.add_all(PassRegistry::builtin().parse_pipeline(spec).unwrap());
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(TargetKind::default());
    pm.run(module, &mut am, &mut cx)
        .unwrap_or_else(|e| panic!("`{spec}` failed verification after `{}`", e.pass));
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
/// produce byte-for-byte the module the legacy direct calls produce.
#[test]
fn managed_pipelines_match_direct_calls_on_the_repro_corpus() {
    type Direct = fn(&mut Module);
    let cases: [(&str, Direct); 4] = [
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
    for (name, module) in repro_modules() {
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
