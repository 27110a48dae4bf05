//! Pass configuration.

use rolag_analysis::cost::TargetKind;

/// Alignment-search strategy (ROADMAP item 5).
///
/// `Greedy` is the paper's behaviour: one seed grouping per region, first
/// profitable candidate wins. `Beam` additionally enumerates alternative
/// seed groupings (lane reorderings, sub-group splits, trimmed groups; see
/// `seeds::candidate_variants`), speculates each on the journal, gates every
/// survivor through the translation validator, and commits whichever
/// validated candidate the cost model scores smallest.
///
/// The variant is part of `RolagOptions`' `Debug` output and therefore of
/// the memo-store options fingerprint: greedy and beam results never share
/// a cache slot, so `rolag-serve` / `roll_module_par` replay byte-identically
/// per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchConfig {
    /// The paper's greedy engine (the default).
    #[default]
    Greedy,
    /// Beam search over alignment choices.
    Beam {
        /// Number of speculated candidates kept alive per step. Width 1 is
        /// defined to be byte- and stats-identical to `Greedy` (enforced by
        /// `tests/search_conformance.rs`).
        width: usize,
        /// Greedy-rollout depth used to score shortlisted candidates
        /// (commits simulated past the speculated candidate). `0` means
        /// unbounded: roll out until the fixpoint dries up.
        depth: usize,
    },
}

impl SearchConfig {
    /// Default rollout depth when a spec names only the width.
    pub const DEFAULT_DEPTH: usize = 4;

    /// Parse a `--search` spec: `greedy`, `beam:<width>`, or
    /// `beam:<width>:<depth>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "greedy" {
            return Ok(SearchConfig::Greedy);
        }
        if let Some(rest) = spec.strip_prefix("beam:") {
            let mut parts = rest.splitn(2, ':');
            let width_s = parts.next().unwrap_or("");
            let width: usize = width_s
                .parse()
                .map_err(|_| format!("invalid beam width {width_s:?} in --search {spec:?}"))?;
            if width == 0 {
                return Err(format!("beam width must be >= 1 in --search {spec:?}"));
            }
            let depth = match parts.next() {
                Some(d) => d
                    .parse()
                    .map_err(|_| format!("invalid beam depth {d:?} in --search {spec:?}"))?,
                None => Self::DEFAULT_DEPTH,
            };
            return Ok(SearchConfig::Beam { width, depth });
        }
        Err(format!(
            "unknown search spec {spec:?} (expected greedy, beam:<width>, or beam:<width>:<depth>)"
        ))
    }

    /// The canonical spec string `parse` accepts back.
    pub fn spec(&self) -> String {
        match self {
            SearchConfig::Greedy => "greedy".to_string(),
            SearchConfig::Beam { width, depth } => format!("beam:{width}:{depth}"),
        }
    }

    /// True when this configuration actually runs the beam engine (width
    /// >= 2); width-1 beams delegate to the greedy engine wholesale.
    pub fn is_beam(&self) -> bool {
        matches!(self, SearchConfig::Beam { width, .. } if *width >= 2)
    }
}

/// Options controlling the RoLAG pass.
///
/// The `enable_*` switches exist for the paper's ablation discussion
/// (disabling the special nodes drops profitable TSVC rolls from 84 to 19,
/// §V-C / Fig. 19).
#[derive(Debug, Clone)]
pub struct RolagOptions {
    /// Allow re-association of floating-point reduction trees (the paper
    /// requires an explicit fast-math opt-in, §IV-C5).
    pub fast_math: bool,
    /// Minimum number of lanes (loop iterations) worth attempting.
    pub min_lanes: usize,
    /// Monotonic integer sequence nodes (§IV-C1).
    pub enable_sequences: bool,
    /// Neutral pointer operation nodes (§IV-C2).
    pub enable_gep_neutral: bool,
    /// Neutral-element padding for binary operations (§IV-C3).
    pub enable_binop_neutral: bool,
    /// Similarity-maximizing operand reordering for commutative ops
    /// (§IV-C3).
    pub enable_commutative: bool,
    /// Recurrence nodes for chained dependences (§IV-C4).
    pub enable_recurrences: bool,
    /// Reduction-tree rolling (§IV-C5).
    pub enable_reductions: bool,
    /// Joint alignment of alternating seed groups (§IV-C6).
    pub enable_joint: bool,
    /// Statically validate every generated rewrite with the `rolag-tv`
    /// translation validator before the cost model may commit it; rewrites
    /// that fail to validate are rejected and counted in
    /// `RolagStats::tv_rejected`.
    pub validate: bool,
    /// EXTENSION (paper future work, §V-C / Fig. 20b): seed alignment from
    /// chains of `select`s and non-associative binops, enabling select-based
    /// min/max reductions to roll. Off by default to match the paper's
    /// evaluated configuration.
    pub enable_value_chains: bool,
    /// Lowering target whose size model drives profitability (§IV-F uses
    /// "the compiler's target-specific cost model").
    pub target: TargetKind,
    /// Use the `rolag-lower` binary-size simulator (isel + regalloc spill
    /// sizing) instead of the cheap TTI-style estimate when judging
    /// profitability. Closes the estimate/measurement gap of §V-A at the
    /// price of lowering the whole function for every open window.
    pub measured_cost: bool,
    /// Alignment-search strategy (greedy, or validator-gated beam search
    /// over alternative seed groupings). Part of the options fingerprint:
    /// memo/serve cache slots are keyed per search configuration.
    pub search: SearchConfig,
}

impl Default for RolagOptions {
    fn default() -> Self {
        RolagOptions {
            fast_math: true,
            min_lanes: 2,
            enable_sequences: true,
            enable_gep_neutral: true,
            enable_binop_neutral: true,
            enable_commutative: true,
            enable_recurrences: true,
            enable_reductions: true,
            enable_joint: true,
            validate: false,
            enable_value_chains: false,
            target: TargetKind::default(),
            measured_cost: false,
            search: SearchConfig::Greedy,
        }
    }
}

/// Builds the options of one named preset.
pub type Preset = fn() -> RolagOptions;

impl RolagOptions {
    /// The preset a request names when it names none.
    pub const DEFAULT_PRESET: &'static str = "default";

    /// The named presets [`RolagOptions::preset`] resolves, in the order
    /// diagnostics list them. `tv` is an alias of `validated`.
    pub const PRESETS: [(&'static str, Preset); 6] = [
        (Self::DEFAULT_PRESET, RolagOptions::default),
        ("extended", RolagOptions::with_extensions),
        ("no-special", RolagOptions::no_special_nodes),
        ("validated", RolagOptions::validated),
        ("tv", RolagOptions::validated),
        ("measured", RolagOptions::measured),
    ];

    /// Resolves a preset name: the one vocabulary behind the registry's
    /// `rolag<preset>` pass, `rolag-serve` requests and
    /// `rolag-opt --serve-options`. An unknown name is an error listing
    /// the known ones.
    pub fn preset(name: &str) -> Result<Self, String> {
        match Self::PRESETS.iter().find(|(preset, _)| *preset == name) {
            Some((_, make)) => Ok(make()),
            None => Err(format!(
                "unknown options preset `{name}`: expected one of {}",
                Self::PRESETS.map(|(preset, _)| preset).join(", ")
            )),
        }
    }

    /// The paper's future-work configuration: everything on, including the
    /// select/min-max chain extension.
    pub fn with_extensions() -> Self {
        RolagOptions {
            enable_value_chains: true,
            ..RolagOptions::default()
        }
    }

    /// The ablation configuration used by Fig. 19's discussion: all special
    /// nodes disabled, leaving only exact matching.
    pub fn no_special_nodes() -> Self {
        RolagOptions {
            enable_sequences: false,
            enable_gep_neutral: false,
            enable_binop_neutral: false,
            enable_commutative: false,
            enable_recurrences: false,
            enable_reductions: false,
            enable_joint: false,
            // Mismatching nodes are one of the two *base* kinds (Fig. 7b),
            // not a special node, so the ablation keeps them.
            ..RolagOptions::default()
        }
    }

    /// The default configuration with per-rewrite translation validation
    /// switched on.
    pub fn validated() -> Self {
        RolagOptions {
            validate: true,
            ..RolagOptions::default()
        }
    }

    /// The default configuration with the lowered-size simulator driving
    /// profitability instead of the TTI estimate.
    pub fn measured() -> Self {
        RolagOptions {
            measured_cost: true,
            ..RolagOptions::default()
        }
    }

    /// The default configuration with a beam search of the given width
    /// (default rollout depth).
    pub fn searched(width: usize) -> Self {
        RolagOptions {
            search: SearchConfig::Beam {
                width,
                depth: SearchConfig::DEFAULT_DEPTH,
            },
            ..RolagOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = RolagOptions::default();
        assert!(o.enable_sequences && o.enable_reductions && o.enable_joint);
        assert_eq!(o.min_lanes, 2);
    }

    #[test]
    fn ablation_disables_special_nodes_only() {
        let o = RolagOptions::no_special_nodes();
        assert!(!o.enable_sequences && !o.enable_recurrences);
        assert_eq!(o.min_lanes, 2);
    }

    #[test]
    fn search_spec_round_trips() {
        assert_eq!(SearchConfig::parse("greedy").unwrap(), SearchConfig::Greedy);
        assert_eq!(
            SearchConfig::parse("beam:4").unwrap(),
            SearchConfig::Beam {
                width: 4,
                depth: SearchConfig::DEFAULT_DEPTH
            }
        );
        assert_eq!(
            SearchConfig::parse("beam:2:7").unwrap(),
            SearchConfig::Beam { width: 2, depth: 7 }
        );
        for spec in ["greedy", "beam:4:4", "beam:2:7"] {
            let cfg = SearchConfig::parse(spec).unwrap();
            assert_eq!(SearchConfig::parse(&cfg.spec()).unwrap(), cfg);
        }
        assert!(SearchConfig::parse("beam:0").is_err());
        assert!(SearchConfig::parse("beam:x").is_err());
        assert!(SearchConfig::parse("dfs").is_err());
    }

    #[test]
    fn beam_width_one_is_not_a_beam() {
        assert!(!SearchConfig::Beam { width: 1, depth: 4 }.is_beam());
        assert!(SearchConfig::Beam { width: 2, depth: 4 }.is_beam());
        assert!(!SearchConfig::Greedy.is_beam());
    }

    #[test]
    fn presets_resolve_every_name_and_only_those() {
        for (name, _) in RolagOptions::PRESETS {
            assert!(RolagOptions::preset(name).is_ok(), "{name}");
        }
        let err = RolagOptions::preset("turbo").unwrap_err();
        assert!(err.contains("expected one of default, extended"), "{err}");
        assert!(RolagOptions::preset("measured").unwrap().measured_cost);
        assert!(RolagOptions::preset("validated").unwrap().validate);
        assert!(RolagOptions::preset("tv").unwrap().validate);
        assert!(
            RolagOptions::preset("extended")
                .unwrap()
                .enable_value_chains
        );
        assert!(!RolagOptions::preset("no-special").unwrap().enable_joint);
    }

    #[test]
    fn search_is_part_of_the_debug_fingerprint() {
        // The memo/serve stores key entries on `format!("{opts:?}")`; two
        // configurations differing only in search must never share a slot.
        let greedy = RolagOptions::default();
        let beam = RolagOptions::searched(4);
        assert_ne!(format!("{greedy:?}"), format!("{beam:?}"));
    }
}
