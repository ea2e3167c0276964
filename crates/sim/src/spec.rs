//! Declarative predictor and estimator specifications.

use cestim_bpred::{AnyPredictor, Bimodal, Gshare, McFarling, Perceptron, SAg, Tage};
use cestim_core::tune::{tune, tuning_frontier, TuneTarget};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, DistanceEstimator, Jrs, JrsCombining,
    PatternHistory, ProfileCollector, SaturatingConfidence, SaturatingVariant, TimingEstimator,
    Voting,
};
use serde::{Deserialize, Serialize};

/// The branch predictors of the study, plus the modern extension families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorKind {
    /// 4096-entry gshare with speculative global history.
    Gshare,
    /// McFarling combining predictor (gshare + bimodal + meta, 4096 each).
    McFarling,
    /// SAg with 2048 × 13-bit local histories and an 8192-entry PHT.
    SAg,
    /// 1024-entry bimodal baseline (not in the paper's tables).
    Bimodal,
    /// TAGE tagged-geometric predictor (extension beyond the paper).
    Tage,
    /// Hashed-perceptron predictor (extension beyond the paper).
    Perceptron,
}

impl PredictorKind {
    /// The three predictors the paper compares (Table 2's columns).
    pub fn paper_three() -> [PredictorKind; 3] {
        [
            PredictorKind::Gshare,
            PredictorKind::McFarling,
            PredictorKind::SAg,
        ]
    }

    /// The two modern predictors of the extension tables.
    pub fn modern_two() -> [PredictorKind; 2] {
        [PredictorKind::Tage, PredictorKind::Perceptron]
    }

    /// Every selectable predictor, paper families first.
    pub fn all() -> [PredictorKind; 6] {
        [
            PredictorKind::Gshare,
            PredictorKind::McFarling,
            PredictorKind::SAg,
            PredictorKind::Bimodal,
            PredictorKind::Tage,
            PredictorKind::Perceptron,
        ]
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Gshare => "gshare",
            PredictorKind::McFarling => "mcfarling",
            PredictorKind::SAg => "sag",
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Tage => "tage",
            PredictorKind::Perceptron => "perceptron",
        }
    }

    /// Parses a predictor name.
    pub fn from_name(name: &str) -> Option<PredictorKind> {
        PredictorKind::all().into_iter().find(|p| p.name() == name)
    }

    /// Parses a predictor name, returning a structured error naming the
    /// valid choices when it is unknown (the `invalid-spec` path for CLI
    /// and protocol callers).
    pub fn from_name_strict(name: &str) -> Result<PredictorKind, ParsePredictorError> {
        PredictorKind::from_name(name).ok_or_else(|| ParsePredictorError(name.to_string()))
    }

    /// Builds the predictor in the paper's configuration with enum-based
    /// static dispatch (no virtual calls on the simulator hot path).
    pub fn build_any(self) -> AnyPredictor {
        match self {
            PredictorKind::Gshare => Gshare::new(12).into(),
            PredictorKind::McFarling => McFarling::new(12).into(),
            PredictorKind::SAg => SAg::paper_config().into(),
            PredictorKind::Bimodal => Bimodal::new(10).into(),
            PredictorKind::Tage => Tage::default_config().into(),
            PredictorKind::Perceptron => Perceptron::default_config().into(),
        }
    }

    /// Width of the history pattern the pattern-history estimator should
    /// watch for this predictor (global for gshare/McFarling, local for
    /// SAg).
    pub fn pattern_width(self) -> u32 {
        match self {
            PredictorKind::Gshare
            | PredictorKind::McFarling
            | PredictorKind::Tage
            | PredictorKind::Perceptron => 12,
            PredictorKind::SAg => 13,
            PredictorKind::Bimodal => 2, // degenerate; bimodal has no history
        }
    }
}

/// Error from parsing a predictor name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePredictorError(String);

impl std::fmt::Display for ParsePredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown predictor `{}` (expected one of:", self.0)?;
        for p in PredictorKind::all() {
            write!(f, " {}", p.name())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParsePredictorError {}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A buildable confidence-estimator description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EstimatorSpec {
    /// JRS miss-distance counters.
    Jrs {
        /// log2 of the MDC table size.
        index_bits: u32,
        /// High-confidence threshold (4-bit counters saturate at 15).
        threshold: u8,
        /// Fold the predicted direction into the index (§3.2.1).
        enhanced: bool,
    },
    /// Saturating-counters estimator.
    SatCtr {
        /// Combining-predictor variant.
        variant: SatVariantSpec,
    },
    /// Pattern-history estimator over `width`-bit histories.
    Pattern {
        /// History width in bits.
        width: u32,
    },
    /// Static profile estimator at an accuracy threshold (needs a profiling
    /// pass, inserted by the runner).
    Static {
        /// Per-branch accuracy threshold in `[0, 1]`.
        threshold: f64,
    },
    /// Misprediction-distance estimator.
    Distance {
        /// High confidence when more than this many branches were fetched
        /// since the last resolved misprediction.
        threshold: u64,
    },
    /// Boost another estimator by requiring `k` consecutive LC events.
    Boosted {
        /// The wrapped estimator.
        inner: Box<EstimatorSpec>,
        /// Consecutive-LC requirement.
        k: u32,
    },
    /// Correct/incorrect registers (Jacobsen et al.'s other design).
    Cir {
        /// log2 of the register-table size.
        index_bits: u32,
        /// Outcome-window width in bits (1..=16).
        width: u32,
        /// High confidence when at least this many recorded outcomes were
        /// correct.
        threshold: u32,
        /// Fold the predicted direction into the index.
        enhanced: bool,
    },
    /// JRS specialized for the McFarling combining predictor (the paper's
    /// §5 future work; see [`JrsCombining`]).
    JrsMcFarling {
        /// log2 of the MDC table size.
        index_bits: u32,
        /// High-confidence threshold.
        threshold: u8,
    },
    /// Static estimator tuned to a metric target (the paper's §5 future
    /// work; see [`cestim_core::tune`]). Needs a profiling pass.
    StaticTuned {
        /// The target to meet on the profile.
        target: TuneTargetSpec,
    },
    /// Composite voting estimator: high confidence iff at least `quorum`
    /// component estimators say so (extension beyond the paper).
    Voting {
        /// The component estimators.
        components: Vec<EstimatorSpec>,
        /// Required number of high votes (1..=components.len()).
        quorum: u32,
    },
    /// Timing estimator keyed on the pipeline's modeled resolution latency
    /// (extension beyond the paper; Constantinou et al.).
    Timing {
        /// High confidence when the branch resolves within this many cycles
        /// of fetch.
        threshold: u64,
    },
    /// Everything high confidence (baseline).
    AlwaysHigh,
    /// Everything low confidence (baseline).
    AlwaysLow,
}

/// Serializable mirror of [`TuneTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TuneTargetSpec {
    /// Require at least this specificity.
    MinSpec(f64),
    /// Require at least this PVN.
    MinPvn(f64),
}

impl From<TuneTargetSpec> for TuneTarget {
    fn from(t: TuneTargetSpec) -> TuneTarget {
        match t {
            TuneTargetSpec::MinSpec(v) => TuneTarget::MinSpec(v),
            TuneTargetSpec::MinPvn(v) => TuneTarget::MinPvn(v),
        }
    }
}

/// Serializable mirror of [`SaturatingVariant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SatVariantSpec {
    /// Use the counter that produced the prediction.
    Selected,
    /// McFarling "Both Strong".
    BothStrong,
    /// McFarling "Either Strong".
    EitherStrong,
}

impl From<SatVariantSpec> for SaturatingVariant {
    fn from(v: SatVariantSpec) -> SaturatingVariant {
        match v {
            SatVariantSpec::Selected => SaturatingVariant::Selected,
            SatVariantSpec::BothStrong => SaturatingVariant::BothStrong,
            SatVariantSpec::EitherStrong => SaturatingVariant::EitherStrong,
        }
    }
}

impl EstimatorSpec {
    /// The paper's JRS configuration (4096 × 4-bit, threshold 15, enhanced).
    pub fn jrs_paper() -> EstimatorSpec {
        EstimatorSpec::Jrs {
            index_bits: 12,
            threshold: 15,
            enhanced: true,
        }
    }

    /// The four Table-2 estimators for a predictor: JRS, saturating
    /// counters ("Both Strong" on McFarling), pattern history (width
    /// matched to the predictor), and the 90 % static profile.
    pub fn paper_set(predictor: PredictorKind) -> Vec<EstimatorSpec> {
        vec![
            EstimatorSpec::jrs_paper(),
            EstimatorSpec::SatCtr {
                variant: if predictor == PredictorKind::McFarling {
                    SatVariantSpec::BothStrong
                } else {
                    SatVariantSpec::Selected
                },
            },
            EstimatorSpec::Pattern {
                width: predictor.pattern_width(),
            },
            EstimatorSpec::Static { threshold: 0.9 },
        ]
    }

    /// `true` when building this estimator requires a profiling pass.
    pub fn needs_profile(&self) -> bool {
        match self {
            EstimatorSpec::Static { .. } | EstimatorSpec::StaticTuned { .. } => true,
            EstimatorSpec::Boosted { inner, .. } => inner.needs_profile(),
            EstimatorSpec::Voting { components, .. } => {
                components.iter().any(EstimatorSpec::needs_profile)
            }
            _ => false,
        }
    }

    /// Validates the spec's structure without building it: voting quorums
    /// must be within `1..=components.len()` with at least one component,
    /// and nesting (boost/vote) must stay within a small depth bound. This
    /// is the non-panicking check the serve protocol and CLI run on
    /// untrusted specs before [`build_any`](EstimatorSpec::build_any).
    pub fn validate(&self) -> Result<(), ParseSpecError> {
        self.validate_depth(0)
    }

    fn validate_depth(&self, depth: u32) -> Result<(), ParseSpecError> {
        const MAX_DEPTH: u32 = 8;
        if depth > MAX_DEPTH {
            return Err(ParseSpecError(format!(
                "estimator spec nesting exceeds depth {MAX_DEPTH}"
            )));
        }
        match self {
            EstimatorSpec::Boosted { inner, k } => {
                if *k == 0 {
                    return Err(ParseSpecError("boost factor must be at least 1".into()));
                }
                inner.validate_depth(depth + 1)
            }
            EstimatorSpec::Voting { components, quorum } => {
                if components.is_empty() {
                    return Err(ParseSpecError(
                        "voting estimator needs at least one component".into(),
                    ));
                }
                if *quorum == 0 || *quorum as usize > components.len() {
                    return Err(ParseSpecError(format!(
                        "voting quorum {} out of range 1..={}",
                        quorum,
                        components.len()
                    )));
                }
                components
                    .iter()
                    .try_for_each(|c| c.validate_depth(depth + 1))
            }
            _ => Ok(()),
        }
    }

    /// Builds the estimator with enum-based static dispatch (no virtual
    /// calls on the simulator hot path). `profile` must be `Some` for specs
    /// where [`needs_profile`](EstimatorSpec::needs_profile) is true.
    ///
    /// # Panics
    ///
    /// Panics if a profile-needing spec is built without a profile.
    pub fn build_any(&self, profile: Option<&ProfileCollector>) -> AnyEstimator {
        match self {
            EstimatorSpec::Jrs {
                index_bits,
                threshold,
                enhanced,
            } => Jrs::new(*index_bits, 4, *threshold, *enhanced).into(),
            EstimatorSpec::SatCtr { variant } => {
                SaturatingConfidence::new((*variant).into()).into()
            }
            EstimatorSpec::Pattern { width } => PatternHistory::new(*width).into(),
            EstimatorSpec::Static { threshold } => {
                let p = profile.expect("static estimator requires a profiling pass");
                p.make_estimator(*threshold).into()
            }
            EstimatorSpec::Distance { threshold } => DistanceEstimator::new(*threshold).into(),
            EstimatorSpec::Cir {
                index_bits,
                width,
                threshold,
                enhanced,
            } => Cir::new(*index_bits, *width, *threshold, *enhanced).into(),
            EstimatorSpec::JrsMcFarling {
                index_bits,
                threshold,
            } => JrsCombining::new(*index_bits, *threshold).into(),
            EstimatorSpec::StaticTuned { target } => {
                let p = profile.expect("tuned static estimator requires a profiling pass");
                match tune(p, (*target).into()) {
                    Some((est, _)) => est.into(),
                    None => {
                        // Unreachable PVN target: fall back to the highest-
                        // PVN point on the frontier (smallest useful LC set).
                        let best = tuning_frontier(p)
                            .into_iter()
                            .filter(|pt| pt.predicted.c_lc + pt.predicted.i_lc > 0)
                            .max_by(|a, b| {
                                a.predicted
                                    .pvn()
                                    .partial_cmp(&b.predicted.pvn())
                                    .expect("pvn is finite")
                            })
                            .expect("profile has at least one site");
                        p.make_estimator(best.threshold).into()
                    }
                }
            }
            EstimatorSpec::Boosted { inner, k } => {
                Boosted::new(inner.build_any(profile), *k).into()
            }
            EstimatorSpec::Voting { components, quorum } => Voting::new(
                components.iter().map(|c| c.build_any(profile)).collect(),
                *quorum,
            )
            .into(),
            EstimatorSpec::Timing { threshold } => TimingEstimator::new(*threshold).into(),
            EstimatorSpec::AlwaysHigh => AlwaysHigh.into(),
            EstimatorSpec::AlwaysLow => AlwaysLow.into(),
        }
    }

    /// Human-readable name. It matches the built estimator's `name()` for
    /// every spec except [`StaticTuned`](EstimatorSpec::StaticTuned), whose
    /// label names its target while the built estimator reports the plain
    /// `static(>N%)` threshold the tuning picked.
    pub fn label(&self) -> String {
        match self {
            EstimatorSpec::Jrs {
                index_bits,
                threshold,
                enhanced,
            } => format!(
                "jrs({}x4b,t>={}{})",
                1u32 << index_bits,
                threshold,
                if *enhanced { ",enh" } else { "" }
            ),
            EstimatorSpec::SatCtr { variant } => match variant {
                SatVariantSpec::Selected => "satctr".to_string(),
                SatVariantSpec::BothStrong => "satctr(both-strong)".to_string(),
                SatVariantSpec::EitherStrong => "satctr(either-strong)".to_string(),
            },
            EstimatorSpec::Pattern { width } => format!("pattern({width}b)"),
            EstimatorSpec::Static { threshold } => {
                format!("static(>{:.0}%)", threshold * 100.0)
            }
            EstimatorSpec::Distance { threshold } => format!("distance(>{threshold})"),
            EstimatorSpec::Cir {
                index_bits,
                width,
                threshold,
                enhanced,
            } => format!(
                "cir({}x{}b,>={}{})",
                1u32 << index_bits,
                width,
                threshold,
                if *enhanced { ",enh" } else { "" }
            ),
            EstimatorSpec::JrsMcFarling {
                index_bits,
                threshold,
            } => format!("jrs-mcf({}x4b,t>={})", 1u32 << index_bits, threshold),
            EstimatorSpec::StaticTuned { target } => match target {
                TuneTargetSpec::MinSpec(v) => format!("static-tuned(spec>={:.0}%)", v * 100.0),
                TuneTargetSpec::MinPvn(v) => format!("static-tuned(pvn>={:.0}%)", v * 100.0),
            },
            EstimatorSpec::Boosted { inner, k } => format!("boost{}({})", k, inner.label()),
            EstimatorSpec::Voting { components, quorum } => {
                let names: Vec<String> = components.iter().map(EstimatorSpec::label).collect();
                format!("vote{}({})", quorum, names.join(","))
            }
            EstimatorSpec::Timing { threshold } => format!("timing(<={threshold})"),
            EstimatorSpec::AlwaysHigh => "always-high".to_string(),
            EstimatorSpec::AlwaysLow => "always-low".to_string(),
        }
    }
}

/// Error from parsing an estimator spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(String);

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad estimator spec: {}", self.0)
    }
}

impl std::error::Error for ParseSpecError {}

impl std::str::FromStr for EstimatorSpec {
    type Err = ParseSpecError;

    /// Parses the compact spec grammar used by the `cestim` CLI:
    ///
    /// ```text
    /// jrs[:bits=N][:t=N][:base]      enhanced JRS unless :base
    /// satctr[:both|:either]          saturating counters
    /// pattern:WIDTH                  pattern history
    /// static:THRESHOLD               e.g. static:0.9
    /// distance:N                     misprediction distance
    /// cir[:bits=N][:w=N][:t=N]       correct/incorrect registers
    /// jrsmcf[:bits=N][:t=N]          McFarling-structured JRS
    /// tuned-spec:V / tuned-pvn:V     tuned static estimator
    /// boost:K:INNER                  boosted inner spec
    /// vote:Q:INNER,INNER[,...]       voting composite (quorum Q)
    /// timing[:N]                     resolution-latency threshold
    /// always-high / always-low
    /// ```
    fn from_str(s: &str) -> Result<EstimatorSpec, ParseSpecError> {
        fn bad<T>(s: &str) -> Result<T, ParseSpecError> {
            Err(ParseSpecError(s.to_string()))
        }
        fn kv(parts: &[&str], key: &str) -> Option<String> {
            parts.iter().find_map(|p| {
                p.strip_prefix(key)
                    .and_then(|r| r.strip_prefix('='))
                    .map(str::to_string)
            })
        }
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, r),
            None => (s, ""),
        };
        let parts: Vec<&str> = rest.split(':').filter(|p| !p.is_empty()).collect();
        match head {
            "jrs" => {
                let index_bits = kv(&parts, "bits").map_or(Ok(12), |v| v.parse().or(bad(s)))?;
                let threshold = kv(&parts, "t").map_or(Ok(15), |v| v.parse().or(bad(s)))?;
                Ok(EstimatorSpec::Jrs {
                    index_bits,
                    threshold,
                    enhanced: !parts.contains(&"base"),
                })
            }
            "satctr" => Ok(EstimatorSpec::SatCtr {
                variant: match parts.first() {
                    None => SatVariantSpec::Selected,
                    Some(&"both") => SatVariantSpec::BothStrong,
                    Some(&"either") => SatVariantSpec::EitherStrong,
                    Some(_) => return bad(s),
                },
            }),
            "pattern" => Ok(EstimatorSpec::Pattern {
                width: parts.first().map_or(Ok(12), |v| v.parse().or(bad(s)))?,
            }),
            "static" => Ok(EstimatorSpec::Static {
                threshold: parts.first().map_or(Ok(0.9), |v| v.parse().or(bad(s)))?,
            }),
            "distance" => Ok(EstimatorSpec::Distance {
                threshold: parts.first().map_or(Ok(3), |v| v.parse().or(bad(s)))?,
            }),
            "cir" => Ok(EstimatorSpec::Cir {
                index_bits: kv(&parts, "bits").map_or(Ok(12), |v| v.parse().or(bad(s)))?,
                width: kv(&parts, "w").map_or(Ok(16), |v| v.parse().or(bad(s)))?,
                threshold: kv(&parts, "t").map_or(Ok(16), |v| v.parse().or(bad(s)))?,
                enhanced: !parts.contains(&"base"),
            }),
            "jrsmcf" => Ok(EstimatorSpec::JrsMcFarling {
                index_bits: kv(&parts, "bits").map_or(Ok(12), |v| v.parse().or(bad(s)))?,
                threshold: kv(&parts, "t").map_or(Ok(15), |v| v.parse().or(bad(s)))?,
            }),
            "tuned-spec" => Ok(EstimatorSpec::StaticTuned {
                target: TuneTargetSpec::MinSpec(
                    parts.first().map_or(Ok(0.9), |v| v.parse().or(bad(s)))?,
                ),
            }),
            "tuned-pvn" => Ok(EstimatorSpec::StaticTuned {
                target: TuneTargetSpec::MinPvn(
                    parts.first().map_or(Ok(0.3), |v| v.parse().or(bad(s)))?,
                ),
            }),
            "boost" => {
                let Some((k, inner)) = rest.split_once(':') else {
                    return bad(s);
                };
                Ok(EstimatorSpec::Boosted {
                    inner: Box::new(inner.parse()?),
                    k: k.parse().or(bad(s))?,
                })
            }
            "vote" => {
                let Some((quorum, inners)) = rest.split_once(':') else {
                    return bad(s);
                };
                let components = inners
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<EstimatorSpec>, _>>()?;
                let spec = EstimatorSpec::Voting {
                    components,
                    quorum: quorum.parse().or(bad(s))?,
                };
                spec.validate()?;
                Ok(spec)
            }
            "timing" => Ok(EstimatorSpec::Timing {
                threshold: parts.first().map_or(Ok(4), |v| v.parse().or(bad(s)))?,
            }),
            "always-high" => Ok(EstimatorSpec::AlwaysHigh),
            "always-low" => Ok(EstimatorSpec::AlwaysLow),
            _ => bad(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::BranchPredictor;
    use cestim_core::ConfidenceEstimator;

    #[test]
    fn predictor_names_round_trip() {
        for p in PredictorKind::all() {
            assert_eq!(PredictorKind::from_name(p.name()), Some(p));
        }
        assert!(PredictorKind::from_name("foo").is_none());
    }

    #[test]
    fn strict_predictor_parse_gives_structured_error() {
        assert_eq!(
            PredictorKind::from_name_strict("tage"),
            Ok(PredictorKind::Tage)
        );
        let err = PredictorKind::from_name_strict("ttage").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown predictor `ttage`"), "{msg}");
        assert!(msg.contains("perceptron"), "{msg}");
    }

    #[test]
    fn built_predictors_report_their_names() {
        for p in PredictorKind::all() {
            assert_eq!(p.build_any().name(), p.name());
        }
    }

    #[test]
    fn spec_labels_match_built_estimator_names() {
        let compress = cestim_workloads::WorkloadKind::Compress;
        let cfg = crate::RunConfig::paper(compress, 1, PredictorKind::Gshare);
        let profile = crate::collect_profile(&cfg);
        for spec in crate::conformance_specs() {
            assert_eq!(spec.label(), spec.build_any(Some(&profile)).name());
        }
        // The documented exception: a tuned static estimator is built as a
        // plain thresholded static estimator.
        let tuned: EstimatorSpec = "tuned-spec:0.9".parse().unwrap();
        let built = tuned.build_any(Some(&profile)).name();
        assert!(
            built.starts_with("static(>") && tuned.label() != built,
            "{built}"
        );
    }

    #[test]
    fn paper_set_adapts_to_the_predictor() {
        let g = EstimatorSpec::paper_set(PredictorKind::Gshare);
        let m = EstimatorSpec::paper_set(PredictorKind::McFarling);
        let s = EstimatorSpec::paper_set(PredictorKind::SAg);
        assert_eq!(g.len(), 4);
        assert!(matches!(
            g[1],
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::Selected
            }
        ));
        assert!(matches!(
            m[1],
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::BothStrong
            }
        ));
        assert!(matches!(s[2], EstimatorSpec::Pattern { width: 13 }));
        assert!(matches!(g[2], EstimatorSpec::Pattern { width: 12 }));
    }

    #[test]
    fn labels_match_built_names() {
        let specs = [
            EstimatorSpec::jrs_paper(),
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::BothStrong,
            },
            EstimatorSpec::Pattern { width: 13 },
            EstimatorSpec::Distance { threshold: 4 },
            EstimatorSpec::AlwaysHigh,
            EstimatorSpec::Boosted {
                inner: Box::new(EstimatorSpec::Distance { threshold: 2 }),
                k: 2,
            },
            EstimatorSpec::Timing { threshold: 4 },
            EstimatorSpec::Voting {
                components: vec![
                    EstimatorSpec::Distance { threshold: 3 },
                    EstimatorSpec::Timing { threshold: 4 },
                ],
                quorum: 2,
            },
        ];
        for s in &specs {
            assert_eq!(s.label(), s.build_any(None).name(), "{s:?}");
        }
    }

    #[test]
    fn static_label_without_building() {
        let s = EstimatorSpec::Static { threshold: 0.9 };
        assert_eq!(s.label(), "static(>90%)");
        assert!(s.needs_profile());
    }

    #[test]
    #[should_panic(expected = "requires a profiling pass")]
    fn static_without_profile_panics() {
        let _ = EstimatorSpec::Static { threshold: 0.9 }.build_any(None);
    }

    #[test]
    fn spec_strings_parse() {
        let cases: &[(&str, EstimatorSpec)] = &[
            ("jrs", EstimatorSpec::jrs_paper()),
            (
                "jrs:bits=10:t=8:base",
                EstimatorSpec::Jrs {
                    index_bits: 10,
                    threshold: 8,
                    enhanced: false,
                },
            ),
            (
                "satctr:both",
                EstimatorSpec::SatCtr {
                    variant: SatVariantSpec::BothStrong,
                },
            ),
            ("pattern:13", EstimatorSpec::Pattern { width: 13 }),
            ("static:0.95", EstimatorSpec::Static { threshold: 0.95 }),
            ("distance:5", EstimatorSpec::Distance { threshold: 5 }),
            (
                "cir:w=16:t=14",
                EstimatorSpec::Cir {
                    index_bits: 12,
                    width: 16,
                    threshold: 14,
                    enhanced: true,
                },
            ),
            (
                "jrsmcf:t=12",
                EstimatorSpec::JrsMcFarling {
                    index_bits: 12,
                    threshold: 12,
                },
            ),
            (
                "tuned-pvn:0.3",
                EstimatorSpec::StaticTuned {
                    target: TuneTargetSpec::MinPvn(0.3),
                },
            ),
            (
                "boost:2:satctr",
                EstimatorSpec::Boosted {
                    inner: Box::new(EstimatorSpec::SatCtr {
                        variant: SatVariantSpec::Selected,
                    }),
                    k: 2,
                },
            ),
            ("always-low", EstimatorSpec::AlwaysLow),
            ("timing", EstimatorSpec::Timing { threshold: 4 }),
            ("timing:7", EstimatorSpec::Timing { threshold: 7 }),
            (
                "vote:2:satctr,distance:3,timing:4",
                EstimatorSpec::Voting {
                    components: vec![
                        EstimatorSpec::SatCtr {
                            variant: SatVariantSpec::Selected,
                        },
                        EstimatorSpec::Distance { threshold: 3 },
                        EstimatorSpec::Timing { threshold: 4 },
                    ],
                    quorum: 2,
                },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(&text.parse::<EstimatorSpec>().unwrap(), want, "{text}");
        }
    }

    #[test]
    fn bad_spec_strings_are_errors() {
        for text in [
            "",
            "jrz",
            "satctr:wat",
            "pattern:x",
            "boost:2",
            "jrs:t=boom",
            "timing:x",
            "vote:2",
            "vote:0:satctr",
            "vote:3:satctr,distance:3",
            "vote:1:satctr,jrz",
        ] {
            assert!(text.parse::<EstimatorSpec>().is_err(), "{text}");
        }
    }

    #[test]
    fn validate_rejects_bad_structure() {
        assert!(EstimatorSpec::Timing { threshold: 4 }.validate().is_ok());
        let bad_quorum = EstimatorSpec::Voting {
            components: vec![EstimatorSpec::AlwaysHigh],
            quorum: 2,
        };
        assert!(bad_quorum.validate().is_err());
        let empty = EstimatorSpec::Voting {
            components: vec![],
            quorum: 1,
        };
        assert!(empty.validate().is_err());
        let zero_boost = EstimatorSpec::Boosted {
            inner: Box::new(EstimatorSpec::AlwaysLow),
            k: 0,
        };
        assert!(zero_boost.validate().is_err());
        // Nested structure inside a vote is validated too.
        let nested_bad = EstimatorSpec::Voting {
            components: vec![EstimatorSpec::Voting {
                components: vec![],
                quorum: 1,
            }],
            quorum: 1,
        };
        assert!(nested_bad.validate().is_err());
    }

    #[test]
    fn voting_propagates_profile_need() {
        let v = EstimatorSpec::Voting {
            components: vec![
                EstimatorSpec::AlwaysHigh,
                EstimatorSpec::Static { threshold: 0.9 },
            ],
            quorum: 1,
        };
        assert!(v.needs_profile());
    }

    #[test]
    fn boosted_propagates_profile_need() {
        let b = EstimatorSpec::Boosted {
            inner: Box::new(EstimatorSpec::Static { threshold: 0.9 }),
            k: 2,
        };
        assert!(b.needs_profile());
    }
}
