//! The pass registry: names → pass constructors, plus pipeline building
//! from parsed specs with pointed diagnostics.
//!
//! The registry is the single source of truth for what passes exist —
//! `rolag-opt --help`, `--list-passes`, and the docs drift-guard test all
//! render from [`PassRegistry::builtin`], so the CLI surface cannot
//! silently diverge from the implementation.

use std::sync::OnceLock;

use rolag::RolagOptions;

use crate::manager::ModulePass;
use crate::ports::{CleanupPass, CsePass, FlattenPass, RerollPass, RolagPass, UnrollPass};
use crate::spec::{PipelineSpec, SpecError};

/// Constructor signature stored in the registry: raw parameter text in,
/// pass instance (or a human-readable complaint) out.
pub type BuildFn = fn(Option<&str>) -> Result<Box<dyn ModulePass>, String>;

/// One registered pass.
pub struct PassInfo {
    /// The name used in pipeline specs and as the legacy `-name` flag.
    pub name: &'static str,
    /// Placeholder for the parameter, when the pass takes one (e.g. `N`
    /// for `unroll<N>`).
    pub param: Option<&'static str>,
    /// One-line description for `--help` and the docs.
    pub summary: &'static str,
    build: BuildFn,
}

impl PassInfo {
    /// The name as it appears in a spec, with the parameter placeholder:
    /// `unroll<N>` or `cse`.
    pub fn syntax(&self) -> String {
        match self.param {
            Some(p) => format!("{}<{}>", self.name, p),
            None => self.name.to_string(),
        }
    }

    /// Instantiates the pass with the given raw parameter text.
    pub fn build(&self, param: Option<&str>) -> Result<Box<dyn ModulePass>, String> {
        (self.build)(param)
    }
}

fn no_param(name: &'static str, param: Option<&str>) -> Result<(), String> {
    match param {
        Some(_) => Err(format!("pass `{name}` takes no parameter")),
        None => Ok(()),
    }
}

fn build_unroll(param: Option<&str>) -> Result<Box<dyn ModulePass>, String> {
    let text = param.ok_or("pass `unroll` needs a factor, e.g. `unroll<4>`")?;
    let factor: u32 = text
        .trim()
        .parse()
        .map_err(|_| format!("bad unroll factor `{text}`: expected an integer"))?;
    if factor < 2 {
        return Err(format!("unroll factor must be at least 2, got {factor}"));
    }
    Ok(Box::new(UnrollPass { factor }))
}

/// `rolag<preset>`: a bare `rolag` is the default preset.
fn build_rolag(param: Option<&str>) -> Result<Box<dyn ModulePass>, String> {
    let preset = param.map_or(RolagOptions::DEFAULT_PRESET, str::trim);
    let options = RolagOptions::preset(preset)?;
    let name = match param {
        Some(_) => format!("rolag<{preset}>"),
        None => "rolag".into(),
    };
    Ok(Box::new(RolagPass { name, options }))
}

fn build_search(param: Option<&str>) -> Result<Box<dyn ModulePass>, String> {
    let width: usize = match param {
        Some(text) => text
            .trim()
            .parse()
            .map_err(|_| format!("bad beam width `{text}`: expected an integer"))?,
        None => 4,
    };
    if width == 0 {
        return Err("beam width must be at least 1".to_string());
    }
    Ok(Box::new(RolagPass {
        name: format!("rolag-search<{width}>"),
        options: RolagOptions::searched(width),
    }))
}

/// A legacy pass name kept as an alias of `rolag<preset>`, so `-name`
/// flags and lit RUN lines keep their spelling.
macro_rules! rolag_alias {
    ($name:literal, $preset:literal, $summary:literal) => {
        PassInfo {
            name: $name,
            param: None,
            summary: concat!("alias of rolag<", $preset, ">: ", $summary),
            build: |param| {
                no_param($name, param)?;
                Ok(Box::new(RolagPass {
                    name: $name.into(),
                    options: RolagOptions::preset($preset).expect("alias rows name a preset"),
                }))
            },
        }
    };
}

macro_rules! simple {
    ($name:literal, $make:expr) => {
        |param| {
            no_param($name, param)?;
            Ok(Box::new($make) as Box<dyn ModulePass>)
        }
    };
}

/// The registered passes, lookup, and pipeline construction.
pub struct PassRegistry {
    infos: Vec<PassInfo>,
}

impl PassRegistry {
    /// The built-in registry (shared, immutable).
    pub fn builtin() -> &'static PassRegistry {
        static REGISTRY: OnceLock<PassRegistry> = OnceLock::new();
        REGISTRY.get_or_init(PassRegistry::new_builtin)
    }

    fn new_builtin() -> PassRegistry {
        PassRegistry {
            infos: vec![
                PassInfo {
                    name: "rolag",
                    param: Some("preset"),
                    summary: "loop rolling (the paper's technique) under an options preset; \
                              bare `rolag` is the default",
                    build: build_rolag,
                },
                rolag_alias!("rolag-ext", "extended", "the future-work extensions"),
                rolag_alias!("no-special", "no-special", "special nodes disabled"),
                rolag_alias!("tv", "validated", "per-rewrite translation validation"),
                PassInfo {
                    name: "rolag-search",
                    param: Some("k"),
                    summary:
                        "beam search over rolling alignments, validated in the beam (width k, default 4)",
                    build: build_search,
                },
                PassInfo {
                    name: "reroll",
                    param: None,
                    summary: "LLVM-style loop rerolling (the baseline)",
                    build: simple!("reroll", RerollPass),
                },
                PassInfo {
                    name: "unroll",
                    param: Some("N"),
                    summary: "partially unroll counted loops by N (N >= 2)",
                    build: build_unroll,
                },
                PassInfo {
                    name: "cse",
                    param: None,
                    summary: "local common-subexpression elimination",
                    build: simple!("cse", CsePass),
                },
                PassInfo {
                    name: "cleanup",
                    param: None,
                    summary: "constant folding + DCE to a fixed point",
                    build: simple!("cleanup", CleanupPass::new()),
                },
                PassInfo {
                    name: "simplify",
                    param: None,
                    summary: "alias of cleanup (legacy -simplify flag)",
                    build: simple!("simplify", CleanupPass::aliased("simplify")),
                },
                PassInfo {
                    name: "dce",
                    param: None,
                    summary: "alias of cleanup (legacy -dce flag)",
                    build: simple!("dce", CleanupPass::aliased("dce")),
                },
                PassInfo {
                    name: "flatten",
                    param: None,
                    summary: "flatten RoLAG's nested loops",
                    build: simple!("flatten", FlattenPass),
                },
            ],
        }
    }

    /// Looks up a pass by name.
    pub fn find(&self, name: &str) -> Option<&PassInfo> {
        self.infos.iter().find(|i| i.name == name)
    }

    /// Every registered pass, in registration order.
    pub fn infos(&self) -> &[PassInfo] {
        &self.infos
    }

    /// Every registered pass name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.infos.iter().map(|i| i.name).collect()
    }

    /// Instantiates the passes of a parsed spec. Unknown names and bad
    /// parameters come back as [`SpecError`]s anchored to the offending
    /// element (or its parameter), ready for
    /// [`SpecError::render`]-style diagnostics.
    pub fn build_pipeline(
        &self,
        spec: &PipelineSpec,
    ) -> Result<Vec<Box<dyn ModulePass>>, SpecError> {
        let mut passes = Vec::with_capacity(spec.elements.len());
        for elem in &spec.elements {
            let info = self.find(&elem.name).ok_or_else(|| SpecError {
                offset: elem.offset,
                message: format!("unknown pass `{}`{}", elem.name, suggest(self, &elem.name)),
            })?;
            let pass = info
                .build(elem.param.as_deref())
                .map_err(|message| SpecError {
                    offset: elem.param_offset.unwrap_or(elem.offset),
                    message,
                })?;
            passes.push(pass);
        }
        Ok(passes)
    }

    /// Parses `text` and instantiates the pipeline in one step.
    pub fn parse_pipeline(&self, text: &str) -> Result<Vec<Box<dyn ModulePass>>, SpecError> {
        let spec = PipelineSpec::parse(text)?;
        self.build_pipeline(&spec)
    }

    /// The pass table for `--help`: one `  name<param>  summary` line per
    /// pass, aligned.
    pub fn help_passes(&self) -> String {
        let width = self
            .infos
            .iter()
            .map(|i| i.syntax().len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for info in &self.infos {
            out.push_str(&format!(
                "  {syntax:<width$}  {summary}\n",
                syntax = info.syntax(),
                summary = info.summary
            ));
        }
        out
    }
}

/// A "did you mean" hint for near-miss pass names (edit distance ≤ 2).
fn suggest(registry: &PassRegistry, name: &str) -> String {
    let mut best: Option<(usize, &str)> = None;
    for info in registry.infos() {
        let d = edit_distance(name, info.name);
        if d <= 2 && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, info.name));
        }
    }
    match best {
        Some((_, candidate)) => format!("; did you mean `{candidate}`?"),
        None => String::new(),
    }
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> SpecError {
        match PassRegistry::builtin().parse_pipeline(text) {
            Err(e) => e,
            Ok(_) => panic!("`{text}` should not parse"),
        }
    }

    #[test]
    fn builtin_registry_builds_every_pass() {
        let reg = PassRegistry::builtin();
        for info in reg.infos() {
            let param = match info.param {
                Some("preset") => Some("extended"),
                Some(_) => Some("4"),
                None => None,
            };
            let pass = info.build(param).expect("builds");
            let name = pass.name();
            assert!(
                name.starts_with(info.name),
                "pass name {name} should start with registry name {}",
                info.name
            );
        }
    }

    #[test]
    fn pipeline_construction_and_diagnostics() {
        let reg = PassRegistry::builtin();
        let passes = reg
            .parse_pipeline("unroll<4>,cleanup,rolag,flatten,cleanup")
            .unwrap();
        assert_eq!(passes.len(), 5);
        assert_eq!(passes[0].name(), "unroll<4>");

        let err = parse_err("unroll<4>,unrol");
        assert_eq!(err.offset, 10);
        assert!(err.message.contains("unknown pass `unrol`"));
        assert!(err.message.contains("did you mean `unroll`?"));

        let err = parse_err("unroll<0>");
        assert!(err.message.contains("must be at least 2"));
        assert_eq!(err.offset, 7, "points at the parameter");

        let err = parse_err("unroll<x>");
        assert!(err.message.contains("bad unroll factor `x`"));

        let err = parse_err("unroll");
        assert!(err.message.contains("needs a factor"));

        let err = parse_err("cse<3>");
        assert!(err.message.contains("takes no parameter"));
    }

    #[test]
    fn search_pass_defaults_and_diagnostics() {
        let reg = PassRegistry::builtin();
        let passes = reg.parse_pipeline("rolag-search").unwrap();
        assert_eq!(passes[0].name(), "rolag-search<4>");
        let passes = reg.parse_pipeline("rolag-search<2>").unwrap();
        assert_eq!(passes[0].name(), "rolag-search<2>");

        let err = parse_err("rolag-search<0>");
        assert!(err.message.contains("at least 1"));
        let err = parse_err("rolag-search<wide>");
        assert!(err.message.contains("bad beam width `wide`"));
    }

    #[test]
    fn help_table_lists_every_pass() {
        let help = PassRegistry::builtin().help_passes();
        for info in PassRegistry::builtin().infos() {
            assert!(help.contains(&info.syntax()), "missing {}", info.name);
            assert!(help.contains(info.summary));
        }
        assert!(help.contains("unroll<N>"));
    }
}
