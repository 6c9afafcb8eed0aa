//! Unified stage-1 sampling drivers — the design-specific half of the
//! poll-based evaluation engine.
//!
//! The evaluation loop of paper Figure 1 needs exactly three things from
//! a sampling design: the next *unit* to annotate (one triple under SRS,
//! one stage-1 cluster draw under the cluster designs), how a labeled
//! unit converts into a per-unit estimate, and the worst-case unit size
//! (an input to the certified stopping lookahead). [`DesignDriver`]
//! captures that contract behind an object-safe trait, so the engine
//! (`kgae-core`'s `EvaluationSession`) runs one control flow over SRS,
//! TWCS, WCS and SCS instead of duplicating the loop per design.
//!
//! Drivers borrow the KG as `&dyn KnowledgeGraph` — any backend
//! implementing the trait plugs in — and the PPS designs share one
//! prebuilt alias table via `Arc`, so constructing a driver per
//! evaluation repetition never re-pays the O(#clusters) table build.
//!
//! Randomness crosses the trait boundary as `&mut dyn RngCore` (the
//! object-safe core of the vendored `rand`); the generic sampling code
//! underneath monomorphizes against it and produces the exact same
//! stream as when driven with a concrete generator.
//!
//! ```
//! use kgae_sampling::driver::{build_driver, DesignSpec};
//! use rand::SeedableRng;
//!
//! let kg = kgae_graph::datasets::yago();
//! let spec: DesignSpec = "twcs:3".parse().unwrap();
//! let mut driver = build_driver(&kg, spec, None, None);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let mut unit = Vec::new();
//! let cluster = driver.next_unit(&mut rng, &mut unit).unwrap();
//! assert!(unit.len() as u64 <= driver.max_unit_size());
//! assert!(unit.iter().all(|st| st.cluster == cluster));
//! ```

use crate::alias::AliasTable;
use crate::distinct::IncrementalWithoutReplacement;
use crate::extra::{ScsSampler, WcsSampler};
use crate::srs::{SampledTriple, SrsSampler};
use crate::twcs::{pps_by_size_table, TwcsSampler};
use kgae_graph::{ClusterId, KnowledgeGraph};
use rand::RngCore;
use std::sync::Arc;

/// How one labeled sampling unit feeds the design's estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnitEstimator {
    /// SRS: units are single triples pooled into the sample proportion
    /// (Eq. 2); there is no per-unit estimate.
    Triple,
    /// TWCS/WCS: the per-draw estimate is the cluster sample mean
    /// `μ̂_i` (Eq. 3).
    SampleMean,
    /// SCS: the Hansen–Hurwitz per-draw estimate `scale · τ_i` with
    /// `scale = N / M`.
    HansenHurwitz {
        /// `N / M` (clusters over triples).
        scale: f64,
    },
}

/// How a stratified evaluation campaign spends its next annotation
/// batch across strata.
///
/// The policies are deterministic given the same per-stratum state, so
/// a suspended stratified session resumes onto the exact allocation
/// trajectory it left.
///
/// ```
/// use kgae_sampling::driver::AllocationPolicy;
///
/// let p: AllocationPolicy = "width-greedy".parse().unwrap();
/// assert_eq!(p, AllocationPolicy::WidthGreedy);
/// assert_eq!(p.canonical_name(), "width-greedy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationPolicy {
    /// Neyman-style width-greedy: give the next batch to the stratum
    /// whose weighted HPD interval promises the largest pooled-width
    /// reduction per annotation (score `(W_h · width_h)² / n_h`).
    /// Equalizing raw widths is provably no better than proportional
    /// under equal weights; this marginal-reduction form converges to
    /// the Neyman optimum `n_h ∝ W_h σ_h`.
    #[default]
    WidthGreedy,
    /// Proportional allocation: keep `n_h / W_h` balanced (the textbook
    /// `n_h ∝ M_h / M` baseline).
    Proportional,
    /// Equal allocation: keep raw per-stratum sample sizes balanced.
    Equal,
}

impl AllocationPolicy {
    /// The canonical lower-case wire name.
    #[must_use]
    pub fn canonical_name(self) -> &'static str {
        match self {
            AllocationPolicy::WidthGreedy => "width-greedy",
            AllocationPolicy::Proportional => "proportional",
            AllocationPolicy::Equal => "equal",
        }
    }
}

impl std::fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for AllocationPolicy {
    type Err = DesignParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "width-greedy" | "widest" | "neyman" => Ok(AllocationPolicy::WidthGreedy),
            "proportional" => Ok(AllocationPolicy::Proportional),
            "equal" => Ok(AllocationPolicy::Equal),
            _ => Err(DesignParseError(s.to_string())),
        }
    }
}

/// The primary interval method of a comparative session — the wire
/// half of `compare:<primary>` designs. The roster a comparative
/// session races is fixed (the paper's four-way comparison: Wald,
/// Wilson, ET, aHPD); the primary names the method whose convergence
/// stops the shared annotation stream.
///
/// This is a *name*, not a method: `kgae-core` maps it onto its
/// `IntervalMethod` roster. It lives here so the design grammar stays
/// in one crate.
///
/// ```
/// use kgae_sampling::driver::ComparePrimary;
///
/// let p: ComparePrimary = "ahpd".parse().unwrap();
/// assert_eq!(p, ComparePrimary::AHpd);
/// assert_eq!(p.canonical_name(), "ahpd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComparePrimary {
    /// The Wald CI drives the stopping rule.
    Wald,
    /// The Wilson CI drives the stopping rule.
    Wilson,
    /// The equal-tailed credible interval (Jeffreys prior) drives the
    /// stopping rule.
    Et,
    /// The adaptive HPD algorithm drives the stopping rule (the
    /// paper-recommended default).
    #[default]
    AHpd,
}

impl ComparePrimary {
    /// Every primary, in the fixed roster order of a comparative
    /// session's per-method rows.
    pub const ALL: [ComparePrimary; 4] = [
        ComparePrimary::Wald,
        ComparePrimary::Wilson,
        ComparePrimary::Et,
        ComparePrimary::AHpd,
    ];

    /// The canonical lower-case wire name (also the method's canonical
    /// `IntervalMethod` name in `kgae-core`).
    #[must_use]
    pub fn canonical_name(self) -> &'static str {
        match self {
            ComparePrimary::Wald => "wald",
            ComparePrimary::Wilson => "wilson",
            ComparePrimary::Et => "et",
            ComparePrimary::AHpd => "ahpd",
        }
    }

    /// The primary's index in the fixed roster ([`ComparePrimary::ALL`]
    /// order) — the position of its row in comparative status reports.
    #[must_use]
    pub fn roster_index(self) -> usize {
        match self {
            ComparePrimary::Wald => 0,
            ComparePrimary::Wilson => 1,
            ComparePrimary::Et => 2,
            ComparePrimary::AHpd => 3,
        }
    }
}

impl std::fmt::Display for ComparePrimary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for ComparePrimary {
    type Err = DesignParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "wald" => Ok(ComparePrimary::Wald),
            "wilson" => Ok(ComparePrimary::Wilson),
            "et" => Ok(ComparePrimary::Et),
            "ahpd" => Ok(ComparePrimary::AHpd),
            _ => Err(DesignParseError(s.to_string())),
        }
    }
}

/// A sampling design identified by name — the wire half of driver
/// reconstruction. The session service receives designs as strings
/// (`"srs"`, `"twcs:3"`, `"wcs"`, `"scs"`, `"stratified:<allocation>"`,
/// `"compare:<primary>"`),
/// parses them into a spec and
/// rebuilds the matching [`DesignDriver`] with [`build_driver`];
/// `kgae-core` layers its own `SamplingDesign` conversions on top so
/// both sides agree on one grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSpec {
    /// Simple random sampling of triples.
    Srs,
    /// Two-stage weighted cluster sampling with second-stage cap `m`.
    Twcs {
        /// Second-stage sample size (`m ≥ 1`).
        m: u64,
    },
    /// Weighted (PPS) cluster sampling, whole clusters.
    Wcs,
    /// Simple cluster sampling, whole clusters.
    Scs,
    /// Stratified SRS: the KG is partitioned into strata and a
    /// coordinator (`kgae-core`'s `StratifiedSession`) runs one
    /// SRS-within-stratum engine per stratum under the given batch
    /// [`AllocationPolicy`]. This is a *session-level* design: it has no
    /// single [`DesignDriver`] (each stratum gets a [`StratumSrsDriver`]),
    /// so [`build_driver`] rejects it.
    Stratified {
        /// How annotation batches are allocated across strata.
        allocation: AllocationPolicy,
    },
    /// Comparative multi-method evaluation: one SRS annotation stream
    /// fanned out to the full interval-method roster, stopping when the
    /// designated primary converges. Like [`DesignSpec::Stratified`]
    /// this is a *session-level* design (`kgae-core`'s
    /// `ComparativeSession` owns one SRS [`DesignDriver`] and a tracker
    /// per rival method), so [`build_driver`] rejects it.
    Compare {
        /// The method whose convergence stops the shared stream.
        primary: ComparePrimary,
    },
    /// Continuous accuracy monitoring: a long-lived SRS engine
    /// (`kgae-core`'s `MonitorSession`) over a delta-applying view of
    /// the KG, re-opening annotation only when updates degrade the
    /// credible interval. A *session-level* design like
    /// [`DesignSpec::Stratified`], so [`build_driver`] rejects it.
    Monitor {
        /// Cap on the pseudo-observations carried between campaigns.
        carry: u64,
    },
}

/// Default pseudo-observation cap of `monitor` designs when the grammar
/// omits `:<carry>`.
pub const DEFAULT_MONITOR_CARRY: u64 = 50;

impl DesignSpec {
    /// The canonical lower-case wire name (`"srs"`, `"twcs:3"`, ...).
    /// [`DesignSpec::from_str`](std::str::FromStr) parses it back.
    #[must_use]
    pub fn canonical_name(&self) -> String {
        match self {
            DesignSpec::Srs => "srs".into(),
            DesignSpec::Twcs { m } => format!("twcs:{m}"),
            DesignSpec::Wcs => "wcs".into(),
            DesignSpec::Scs => "scs".into(),
            DesignSpec::Stratified { allocation } => {
                format!("stratified:{}", allocation.canonical_name())
            }
            DesignSpec::Compare { primary } => format!("compare:{}", primary.canonical_name()),
            DesignSpec::Monitor { carry } => format!("monitor:{carry}"),
        }
    }
}

impl std::fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_name())
    }
}

/// Error parsing a design name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignParseError(
    /// The offending name.
    pub String,
);

impl std::fmt::Display for DesignParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown sampling design {:?} (expected srs, twcs:<m>, wcs or scs)",
            self.0
        )
    }
}

impl std::error::Error for DesignParseError {}

impl std::str::FromStr for DesignSpec {
    type Err = DesignParseError;

    /// Parses a design name, case-insensitively. Accepted forms:
    /// `srs`, `wcs`, `scs`, `twcs:<m>` (canonical), the display form
    /// `twcs(m=<m>)` used in the paper tables,
    /// `stratified[:<allocation>]` (allocation defaults to
    /// `width-greedy`), `compare:<primary>` (primary ∈
    /// `wald|wilson|et|ahpd`, always explicit), and
    /// `monitor[:<carry>]` (carry ≥ 1 pseudo-observations, default
    /// [`DEFAULT_MONITOR_CARRY`]). `m` must be ≥ 1.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || DesignParseError(s.to_string());
        match lower.as_str() {
            "srs" => return Ok(DesignSpec::Srs),
            "wcs" => return Ok(DesignSpec::Wcs),
            "scs" => return Ok(DesignSpec::Scs),
            "stratified" => {
                return Ok(DesignSpec::Stratified {
                    allocation: AllocationPolicy::default(),
                })
            }
            "monitor" => {
                return Ok(DesignSpec::Monitor {
                    carry: DEFAULT_MONITOR_CARRY,
                })
            }
            _ => {}
        }
        if let Some(alloc) = lower.strip_prefix("stratified:") {
            let allocation = alloc.parse().map_err(|_| err())?;
            return Ok(DesignSpec::Stratified { allocation });
        }
        if let Some(primary) = lower.strip_prefix("compare:") {
            let primary = primary.parse().map_err(|_| err())?;
            return Ok(DesignSpec::Compare { primary });
        }
        if let Some(carry) = lower.strip_prefix("monitor:") {
            let carry: u64 = carry.parse().map_err(|_| err())?;
            if carry == 0 {
                return Err(err());
            }
            return Ok(DesignSpec::Monitor { carry });
        }
        let m_str = lower
            .strip_prefix("twcs:")
            .or_else(|| {
                lower
                    .strip_prefix("twcs(m=")
                    .and_then(|rest| rest.strip_suffix(')'))
            })
            .ok_or_else(err)?;
        let m: u64 = m_str.parse().map_err(|_| err())?;
        if m == 0 {
            return Err(err());
        }
        Ok(DesignSpec::Twcs { m })
    }
}

/// Reconstructs the [`DesignDriver`] for a named design over any KG
/// backend — the single construction path shared by the closed-loop
/// facade, the poll-based session engine and the session service.
///
/// `pps` supplies a prebuilt PPS-by-size alias table for the weighted
/// designs (an `Arc` clone, never a table copy); `max_unit_size` the
/// precomputed largest-cluster size for the whole-cluster designs. Both
/// are rebuilt from the KG when absent, at O(#clusters) cost.
///
/// # Panics
///
/// Panics on the session-level designs: [`DesignSpec::Stratified`]
/// (one [`StratumSrsDriver`] per stratum, coordinated by `kgae-core`'s
/// `StratifiedSession`) and [`DesignSpec::Compare`] (one SRS driver
/// plus per-method trackers, coordinated by `ComparativeSession`) —
/// neither reduces to a single driver.
#[must_use]
pub fn build_driver<'a>(
    kg: &'a dyn KnowledgeGraph,
    spec: DesignSpec,
    pps: Option<Arc<AliasTable>>,
    max_unit_size: Option<u64>,
) -> Box<dyn DesignDriver + Send + 'a> {
    let table =
        |pps: Option<Arc<AliasTable>>| pps.unwrap_or_else(|| Arc::new(pps_by_size_table(kg)));
    let max = |max_unit_size: Option<u64>| max_unit_size.unwrap_or_else(|| max_cluster_size(kg));
    match spec {
        DesignSpec::Srs => Box::new(SrsDriver::new(kg)),
        DesignSpec::Twcs { m } => Box::new(TwcsDriver::with_table(kg, m, table(pps))),
        DesignSpec::Wcs => Box::new(WcsDriver::with_table(kg, table(pps), max(max_unit_size))),
        DesignSpec::Scs => Box::new(ScsDriver::with_max_unit_size(kg, max(max_unit_size))),
        DesignSpec::Stratified { .. } => {
            panic!("stratified designs are coordinated per stratum (StratifiedSession), not built as one driver")
        }
        DesignSpec::Compare { .. } => {
            panic!("comparative designs are coordinated per method (ComparativeSession), not built as one driver")
        }
        DesignSpec::Monitor { .. } => {
            panic!(
                "monitor designs are long-lived sessions (MonitorSession), not built as one driver"
            )
        }
    }
}

/// Error restoring a driver from serialized state (snapshot corrupt or
/// from a different design/KG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverStateError(
    /// What was wrong with the state bytes.
    pub &'static str,
);

impl std::fmt::Display for DriverStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "driver state restore failed: {}", self.0)
    }
}

impl std::error::Error for DriverStateError {}

/// A sampling design reduced to its poll contract: hand out stage-1
/// units until the stream is exhausted.
///
/// Object-safe on purpose — the evaluation session stores
/// `Box<dyn DesignDriver>` and swaps designs without re-monomorphizing
/// the engine.
pub trait DesignDriver {
    /// Samples the next stage-1 unit into `out` (cleared first) and
    /// returns its cluster, or `None` when the design's stream is
    /// exhausted (SRS: every triple drawn; bounded streams: the draw
    /// limit reached). Exhaustion is a state, not a panic: every
    /// subsequent call keeps returning `None`.
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId>;

    /// How labeled units feed the estimator.
    fn estimator(&self) -> UnitEstimator;

    /// Maximum number of triples a single unit can annotate (`1` for
    /// SRS, `m` for TWCS, the largest cluster for whole-cluster
    /// designs) — the growth bound of the certified stopping lookahead.
    fn max_unit_size(&self) -> u64;

    /// Units handed out so far.
    fn units_drawn(&self) -> u64;

    /// Appends the driver's dynamic state to `out` (canonical bytes:
    /// identical logical state ⇒ identical encoding).
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores dynamic state captured by [`DesignDriver::save_state`]
    /// on a driver constructed identically (same design, same KG).
    ///
    /// # Errors
    ///
    /// Fails on truncated/oversized input or out-of-range entries.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError>;
}

// ---------------------------------------------------------------------
// Minimal canonical byte codec for driver state.
// ---------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64, DriverStateError> {
    let end = cursor
        .checked_add(8)
        .ok_or(DriverStateError("cursor overflow"))?;
    let chunk = bytes
        .get(*cursor..end)
        .ok_or(DriverStateError("truncated state"))?;
    *cursor = end;
    Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
}

fn expect_consumed(bytes: &[u8], cursor: usize) -> Result<(), DriverStateError> {
    if cursor == bytes.len() {
        Ok(())
    } else {
        Err(DriverStateError("trailing bytes in state"))
    }
}

/// Encodes a without-replacement stream: `drawn`, then the sorted
/// displaced table as a length-prefixed list of `(position, value)`.
fn save_stream(stream: &IncrementalWithoutReplacement, out: &mut Vec<u8>) {
    push_u64(out, stream.drawn());
    let entries = stream.displaced_entries();
    push_u64(out, entries.len() as u64);
    for (k, v) in entries {
        push_u64(out, k);
        push_u64(out, v);
    }
}

/// Decodes [`save_stream`] bytes into a stream over `population`
/// items, range-checking every field before rebuilding it.
fn restore_stream(
    bytes: &[u8],
    population: u64,
) -> Result<IncrementalWithoutReplacement, DriverStateError> {
    let mut cursor = 0;
    let drawn = read_u64(bytes, &mut cursor)?;
    if drawn > population {
        return Err(DriverStateError("drawn exceeds population"));
    }
    let len = read_u64(bytes, &mut cursor)?;
    if len > 2 * drawn {
        // Each draw displaces at most two positions.
        return Err(DriverStateError("displaced table larger than draws allow"));
    }
    let mut entries = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let k = read_u64(bytes, &mut cursor)?;
        let v = read_u64(bytes, &mut cursor)?;
        if k >= population || v >= population {
            return Err(DriverStateError("displaced entry out of range"));
        }
        entries.push((k, v));
    }
    expect_consumed(bytes, cursor)?;
    Ok(IncrementalWithoutReplacement::from_saved(
        population, drawn, &entries,
    ))
}

/// Decodes the single `drawn` counter that is the whole state of the
/// with-replacement designs.
fn restore_counter(bytes: &[u8]) -> Result<u64, DriverStateError> {
    let mut cursor = 0;
    let drawn = read_u64(bytes, &mut cursor)?;
    expect_consumed(bytes, cursor)?;
    Ok(drawn)
}

fn max_cluster_size(kg: &dyn KnowledgeGraph) -> u64 {
    (0..kg.num_clusters())
        .map(|c| kg.cluster_size(ClusterId(c)))
        .max()
        .unwrap_or(1)
}

// ---------------------------------------------------------------------
// SRS
// ---------------------------------------------------------------------

/// SRS driver: units are single triples, drawn without replacement;
/// the stream exhausts once the whole KG has been drawn.
pub struct SrsDriver<'a> {
    sampler: SrsSampler<'a, dyn KnowledgeGraph + 'a>,
    num_triples: u64,
}

impl<'a> SrsDriver<'a> {
    /// Driver over all triples of `kg`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        Self {
            sampler: SrsSampler::new(kg),
            num_triples: kg.num_triples(),
        }
    }
}

impl DesignDriver for SrsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let st = self.sampler.next_triple(rng)?;
        out.push(st);
        Some(st.cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::Triple
    }

    fn max_unit_size(&self) -> u64 {
        1
    }

    fn units_drawn(&self) -> u64 {
        self.sampler.drawn()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        save_stream(self.sampler.stream(), out);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        let stream = restore_stream(bytes, self.num_triples)?;
        self.sampler.restore_stream(stream);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TWCS
// ---------------------------------------------------------------------

/// TWCS driver: PPS stage-1 clusters (with replacement), capped SRS
/// second stage. Stateless across draws, so the stream never exhausts.
pub struct TwcsDriver<'a> {
    sampler: TwcsSampler<'a, dyn KnowledgeGraph + 'a>,
    drawn: u64,
}

impl<'a> TwcsDriver<'a> {
    /// Builds the driver, constructing the PPS table (O(#clusters);
    /// prefer [`TwcsDriver::with_table`] for repeated evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph, m: u64) -> Self {
        Self::with_table(kg, m, Arc::new(pps_by_size_table(kg)))
    }

    /// Builds the driver around a shared, prebuilt PPS table.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the table size disagrees with the KG.
    #[must_use]
    pub fn with_table(kg: &'a dyn KnowledgeGraph, m: u64, table: Arc<AliasTable>) -> Self {
        Self {
            sampler: TwcsSampler::with_table(kg, m, table),
            drawn: 0,
        }
    }
}

impl DesignDriver for TwcsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let draw = self.sampler.next_cluster(rng);
        out.extend_from_slice(&draw.triples);
        self.drawn += 1;
        Some(draw.cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::SampleMean
    }

    fn max_unit_size(&self) -> u64 {
        self.sampler.m().max(1)
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        push_u64(out, self.drawn);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        self.drawn = restore_counter(bytes)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// WCS
// ---------------------------------------------------------------------

/// WCS driver: PPS stage-1 clusters (with replacement), whole-cluster
/// annotation.
pub struct WcsDriver<'a> {
    sampler: WcsSampler<'a, dyn KnowledgeGraph + 'a>,
    max_unit_size: u64,
    drawn: u64,
}

impl<'a> WcsDriver<'a> {
    /// Builds the driver, constructing the PPS table and scanning the
    /// largest cluster (both O(#clusters); prefer
    /// [`WcsDriver::with_table`] for repeated evaluations).
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        let max = max_cluster_size(kg);
        Self::with_table(kg, Arc::new(pps_by_size_table(kg)), max)
    }

    /// Builds the driver around a shared table and a precomputed
    /// largest-cluster size.
    ///
    /// # Panics
    ///
    /// Panics if the table size disagrees with the KG.
    #[must_use]
    pub fn with_table(
        kg: &'a dyn KnowledgeGraph,
        table: Arc<AliasTable>,
        max_unit_size: u64,
    ) -> Self {
        Self {
            sampler: WcsSampler::with_table(kg, table),
            max_unit_size: max_unit_size.max(1),
            drawn: 0,
        }
    }
}

impl DesignDriver for WcsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let draw = self.sampler.next_cluster(rng);
        out.extend_from_slice(&draw.triples);
        self.drawn += 1;
        Some(draw.cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::SampleMean
    }

    fn max_unit_size(&self) -> u64 {
        self.max_unit_size
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        push_u64(out, self.drawn);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        self.drawn = restore_counter(bytes)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SCS
// ---------------------------------------------------------------------

/// SCS driver: uniform stage-1 clusters (with replacement),
/// whole-cluster annotation, Hansen–Hurwitz estimation.
///
/// Supports an optional stage-1 draw limit
/// ([`ScsDriver::limit_draws`]) modeling a bounded external annotation
/// stream (e.g. a crowdsourcing batch that ends): once the limit is
/// reached the stream reports exhaustion instead of drawing further.
pub struct ScsDriver<'a> {
    sampler: ScsSampler<'a, dyn KnowledgeGraph + 'a>,
    scale: f64,
    max_unit_size: u64,
    drawn: u64,
    draw_limit: Option<u64>,
}

impl<'a> ScsDriver<'a> {
    /// Builds the driver, scanning the largest cluster (O(#clusters);
    /// prefer [`ScsDriver::with_max_unit_size`] for repeated
    /// evaluations).
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        let max = max_cluster_size(kg);
        Self::with_max_unit_size(kg, max)
    }

    /// Builds the driver with a precomputed largest-cluster size.
    #[must_use]
    pub fn with_max_unit_size(kg: &'a dyn KnowledgeGraph, max_unit_size: u64) -> Self {
        let scale = f64::from(kg.num_clusters()) / kg.num_triples() as f64;
        Self {
            sampler: ScsSampler::new(kg),
            scale,
            max_unit_size: max_unit_size.max(1),
            drawn: 0,
            draw_limit: None,
        }
    }

    /// Caps the stream at `limit` stage-1 draws; the driver reports
    /// exhaustion afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` (a stream that can never produce a unit
    /// has no defined estimate).
    #[must_use]
    pub fn limit_draws(mut self, limit: u64) -> Self {
        assert!(limit > 0, "draw limit must be positive");
        self.draw_limit = Some(limit);
        self
    }
}

impl DesignDriver for ScsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        if self.draw_limit.is_some_and(|cap| self.drawn >= cap) {
            return None;
        }
        let draw = self.sampler.next_cluster(rng);
        out.extend_from_slice(&draw.triples);
        self.drawn += 1;
        Some(draw.cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::HansenHurwitz { scale: self.scale }
    }

    fn max_unit_size(&self) -> u64 {
        self.max_unit_size
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        push_u64(out, self.drawn);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        self.drawn = restore_counter(bytes)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Stratum SRS
// ---------------------------------------------------------------------

/// SRS-without-replacement restricted to one stratum of a KG: a
/// member-list of triple ids (in *parent* coordinates) drawn through a
/// lazy Fisher–Yates stream. One such driver per stratum is the
/// design-specific half of the stratified evaluation coordinator.
///
/// The member list rides in an `Arc`, shared with the `Stratification`
/// that produced it — constructing a driver per stratum session copies a
/// pointer, never the list.
pub struct StratumSrsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    members: Arc<Vec<u64>>,
    stream: IncrementalWithoutReplacement,
}

impl<'a> StratumSrsDriver<'a> {
    /// Driver over the stratum whose member triple ids are `members`
    /// (parent-KG coordinates, typically sorted — the order is part of
    /// the sampling stream's identity, so resume with the same list).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or any id is out of range for `kg`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph, members: Arc<Vec<u64>>) -> Self {
        assert!(!members.is_empty(), "a stratum cannot be empty");
        assert!(
            members.iter().all(|&t| t < kg.num_triples()),
            "stratum member out of range for the KG"
        );
        let stream = IncrementalWithoutReplacement::new(members.len() as u64);
        Self {
            kg,
            members,
            stream,
        }
    }

    /// Number of triples in the stratum.
    #[must_use]
    pub fn stratum_size(&self) -> u64 {
        self.members.len() as u64
    }
}

impl DesignDriver for StratumSrsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let local = self.stream.next_draw(rng)?;
        let triple = kgae_graph::TripleId(self.members[local as usize]);
        let cluster = self.kg.cluster_of(triple);
        out.push(SampledTriple { triple, cluster });
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::Triple
    }

    fn max_unit_size(&self) -> u64 {
        1
    }

    fn units_drawn(&self) -> u64 {
        self.stream.drawn()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        save_stream(&self.stream, out);
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DriverStateError> {
        self.stream = restore_stream(bytes, self.stratum_size())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::compact::{CompactKg, LabelStore};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn kg(sizes: &[u64]) -> CompactKg {
        CompactKg::new(sizes, LabelStore::Hashed { seed: 9, rate: 0.8 })
    }

    #[test]
    fn srs_driver_streams_distinct_singletons_then_exhausts() {
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = SrsDriver::new(&kg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        while let Some(cluster) = d.next_unit(&mut rng, &mut buf) {
            assert_eq!(buf.len(), 1);
            assert_eq!(buf[0].cluster, cluster);
            assert!(seen.insert(buf[0].triple));
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(d.units_drawn(), 10);
        // Exhaustion is sticky.
        assert!(d.next_unit(&mut rng, &mut buf).is_none());
        assert_eq!(d.estimator(), UnitEstimator::Triple);
        assert_eq!(d.max_unit_size(), 1);
    }

    #[test]
    fn srs_driver_matches_plain_sampler_stream() {
        // The driver must not perturb the RNG consumption of the
        // underlying sampler — same seed, same triple sequence.
        let kg = kg(&[5, 7, 2]);
        let mut d = SrsDriver::new(&kg);
        let mut s = SrsSampler::new(&kg);
        let mut rng_d = SmallRng::seed_from_u64(3);
        let mut rng_s = SmallRng::seed_from_u64(3);
        let mut buf = Vec::new();
        for _ in 0..14 {
            d.next_unit(&mut rng_d, &mut buf).unwrap();
            let st = s.next_triple(&mut rng_s).unwrap();
            assert_eq!(buf[0], st);
        }
    }

    #[test]
    fn twcs_driver_with_m_at_least_every_cluster_size_takes_whole_clusters() {
        // m ≥ the largest cluster (and ≥ the number of clusters): the
        // capped second stage degenerates to whole-cluster draws.
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = TwcsDriver::new(&kg, 64);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut buf = Vec::new();
        for _ in 0..50 {
            let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
            assert_eq!(buf.len() as u64, kg.cluster_size(cluster));
            let distinct: HashSet<_> = buf.iter().map(|t| t.triple).collect();
            assert_eq!(distinct.len(), buf.len());
        }
        assert_eq!(d.max_unit_size(), 64);
        assert_eq!(d.units_drawn(), 50);
    }

    #[test]
    fn cluster_drivers_handle_single_triple_clusters() {
        // Every cluster has exactly one triple: cluster designs
        // degenerate to (weighted) triple sampling and every unit is a
        // singleton.
        let kg = kg(&[1; 40]);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut buf = Vec::new();
        let mut twcs = TwcsDriver::new(&kg, 3);
        let mut wcs = WcsDriver::new(&kg);
        let mut scs = ScsDriver::new(&kg);
        // Whole-cluster designs bound units by the largest cluster (1);
        // TWCS by its second-stage cap m.
        assert_eq!(wcs.max_unit_size(), 1);
        assert_eq!(scs.max_unit_size(), 1);
        assert_eq!(twcs.max_unit_size(), 3);
        let drivers: [&mut dyn DesignDriver; 3] = [&mut twcs, &mut wcs, &mut scs];
        for d in drivers {
            for _ in 0..30 {
                let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
                assert_eq!(buf.len(), 1);
                assert_eq!(buf[0].cluster, cluster);
            }
        }
    }

    #[test]
    fn scs_driver_reports_exhaustion_at_the_draw_limit() {
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = ScsDriver::new(&kg).limit_draws(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = Vec::new();
        for _ in 0..5 {
            assert!(d.next_unit(&mut rng, &mut buf).is_some());
        }
        // Exhausted: keeps returning None without panicking, and the
        // buffer is left cleared.
        for _ in 0..3 {
            assert!(d.next_unit(&mut rng, &mut buf).is_none());
            assert!(buf.is_empty());
        }
        assert_eq!(d.units_drawn(), 5);
        match d.estimator() {
            UnitEstimator::HansenHurwitz { scale } => {
                assert!((scale - 4.0 / 10.0).abs() < 1e-12);
            }
            other => panic!("SCS estimator is {other:?}"),
        }
    }

    #[test]
    fn srs_driver_state_round_trip_resumes_the_exact_stream() {
        let kg = kg(&[10, 10, 10]);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut buf = Vec::new();
        let mut original = SrsDriver::new(&kg);
        for _ in 0..12 {
            original.next_unit(&mut rng, &mut buf).unwrap();
        }
        let mut state = Vec::new();
        original.save_state(&mut state);
        let rng_state = rng.state();

        let mut resumed = SrsDriver::new(&kg);
        resumed.restore_state(&state).unwrap();
        assert_eq!(resumed.units_drawn(), 12);
        let mut rng_resumed = SmallRng::from_state(rng_state);
        let mut buf_resumed = Vec::new();
        // Both continuations must emit the identical remaining stream.
        loop {
            let a = original.next_unit(&mut rng, &mut buf);
            let b = resumed.next_unit(&mut rng_resumed, &mut buf_resumed);
            assert_eq!(a, b);
            assert_eq!(buf, buf_resumed);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn design_spec_names_round_trip_and_reject_garbage() {
        let specs = [
            DesignSpec::Srs,
            DesignSpec::Twcs { m: 3 },
            DesignSpec::Twcs { m: 17 },
            DesignSpec::Wcs,
            DesignSpec::Scs,
        ];
        for spec in specs {
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
            // Case-insensitive, and the paper display form also parses.
            assert_eq!(
                spec.canonical_name()
                    .to_ascii_uppercase()
                    .parse::<DesignSpec>()
                    .unwrap(),
                spec
            );
        }
        assert_eq!(
            "TWCS(m=5)".parse::<DesignSpec>().unwrap(),
            DesignSpec::Twcs { m: 5 }
        );
        assert_eq!(" srs ".parse::<DesignSpec>().unwrap(), DesignSpec::Srs);
        for bad in [
            "", "srss", "twcs", "twcs:", "twcs:0", "twcs:-1", "twcs(m=3", "pps",
        ] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn build_driver_reconstructs_every_design_and_is_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn DesignDriver + Send>();
        let kg = kg(&[3, 1, 4, 2]);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut buf = Vec::new();
        for (name, est_is_triple) in [
            ("srs", true),
            ("twcs:3", false),
            ("wcs", false),
            ("scs", false),
        ] {
            let spec: DesignSpec = name.parse().unwrap();
            let mut d = build_driver(&kg, spec, None, None);
            assert!(d.next_unit(&mut rng, &mut buf).is_some(), "{name}");
            assert_eq!(
                matches!(d.estimator(), UnitEstimator::Triple),
                est_is_triple,
                "{name}"
            );
        }
        // A reconstructed driver produces the exact stream of a directly
        // constructed one (shared table or not).
        let table = Arc::new(pps_by_size_table(&kg));
        let mut a = build_driver(&kg, DesignSpec::Twcs { m: 2 }, Some(table.clone()), None);
        let mut b = TwcsDriver::with_table(&kg, 2, table);
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let mut buf_b = Vec::new();
        for _ in 0..20 {
            assert_eq!(
                a.next_unit(&mut rng_a, &mut buf),
                b.next_unit(&mut rng_b, &mut buf_b)
            );
            assert_eq!(buf, buf_b);
        }
    }

    #[test]
    fn stratified_design_names_round_trip() {
        for (name, allocation) in [
            ("stratified", AllocationPolicy::WidthGreedy),
            ("stratified:width-greedy", AllocationPolicy::WidthGreedy),
            ("stratified:proportional", AllocationPolicy::Proportional),
            ("stratified:equal", AllocationPolicy::Equal),
            ("STRATIFIED:EQUAL", AllocationPolicy::Equal),
        ] {
            let spec: DesignSpec = name.parse().unwrap();
            assert_eq!(spec, DesignSpec::Stratified { allocation }, "{name}");
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
        }
        for bad in ["stratified:", "stratified:zipf", "stratified:widest:"] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn compare_design_names_round_trip() {
        for (name, primary) in [
            ("compare:wald", ComparePrimary::Wald),
            ("compare:wilson", ComparePrimary::Wilson),
            ("compare:et", ComparePrimary::Et),
            ("compare:ahpd", ComparePrimary::AHpd),
            ("COMPARE:AHPD", ComparePrimary::AHpd),
        ] {
            let spec: DesignSpec = name.parse().unwrap();
            assert_eq!(spec, DesignSpec::Compare { primary }, "{name}");
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
            assert_eq!(
                primary.canonical_name().parse::<ComparePrimary>().unwrap(),
                primary
            );
        }
        // Roster order is the contract of per-method status rows.
        for (i, p) in ComparePrimary::ALL.into_iter().enumerate() {
            assert_eq!(p.roster_index(), i);
        }
        // The primary is always explicit: a bare "compare" is invalid.
        for bad in ["compare", "compare:", "compare:hpd", "compare:bayes"] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    #[should_panic(expected = "coordinated per method")]
    fn build_driver_rejects_the_compare_design() {
        let kg = kg(&[2, 2]);
        let _ = build_driver(
            &kg,
            DesignSpec::Compare {
                primary: ComparePrimary::AHpd,
            },
            None,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "coordinated per stratum")]
    fn build_driver_rejects_the_stratified_design() {
        let kg = kg(&[2, 2]);
        let _ = build_driver(
            &kg,
            DesignSpec::Stratified {
                allocation: AllocationPolicy::WidthGreedy,
            },
            None,
            None,
        );
    }

    #[test]
    fn stratum_driver_streams_exactly_its_members_then_exhausts() {
        let kg = kg(&[3, 1, 4, 2]);
        let members = Arc::new(vec![0u64, 3, 4, 8, 9]);
        let mut d = StratumSrsDriver::new(&kg, members.clone());
        assert_eq!(d.stratum_size(), 5);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        while let Some(cluster) = d.next_unit(&mut rng, &mut buf) {
            assert_eq!(buf.len(), 1);
            assert_eq!(buf[0].cluster, cluster);
            assert_eq!(kg.cluster_of(buf[0].triple), cluster);
            assert!(members.contains(&buf[0].triple.index()));
            assert!(seen.insert(buf[0].triple));
        }
        assert_eq!(seen.len(), 5, "every member drawn exactly once");
        assert_eq!(d.units_drawn(), 5);
        assert!(d.next_unit(&mut rng, &mut buf).is_none(), "sticky");
        assert_eq!(d.estimator(), UnitEstimator::Triple);
        assert_eq!(d.max_unit_size(), 1);
    }

    #[test]
    fn stratum_driver_state_round_trip_resumes_the_exact_stream() {
        let kg = kg(&[10, 10, 10]);
        let members = Arc::new((0..30u64).filter(|t| t % 3 != 1).collect::<Vec<_>>());
        let mut rng = SmallRng::seed_from_u64(21);
        let mut buf = Vec::new();
        let mut original = StratumSrsDriver::new(&kg, members.clone());
        for _ in 0..7 {
            original.next_unit(&mut rng, &mut buf).unwrap();
        }
        let mut state = Vec::new();
        original.save_state(&mut state);
        let rng_state = rng.state();

        let mut resumed = StratumSrsDriver::new(&kg, members);
        resumed.restore_state(&state).unwrap();
        let mut rng_resumed = SmallRng::from_state(rng_state);
        let mut buf_resumed = Vec::new();
        loop {
            let a = original.next_unit(&mut rng, &mut buf);
            let b = resumed.next_unit(&mut rng_resumed, &mut buf_resumed);
            assert_eq!(a, b);
            assert_eq!(buf, buf_resumed);
            if a.is_none() {
                break;
            }
        }
        // Garbage states are rejected.
        let mut fresh = StratumSrsDriver::new(&kg, Arc::new(vec![0, 1]));
        assert!(fresh.restore_state(&[9]).is_err(), "truncated");
        let mut bad = Vec::new();
        push_u64(&mut bad, 7); // drawn > stratum size
        push_u64(&mut bad, 0);
        assert!(fresh.restore_state(&bad).is_err());
    }

    #[test]
    fn driver_state_restore_rejects_garbage() {
        let kg = kg(&[4, 4]);
        let mut d = SrsDriver::new(&kg);
        assert!(d.restore_state(&[1, 2, 3]).is_err(), "truncated");
        let mut bad = Vec::new();
        push_u64(&mut bad, 99); // drawn > population
        push_u64(&mut bad, 0);
        assert!(d.restore_state(&bad).is_err());
        let mut trailing = Vec::new();
        push_u64(&mut trailing, 0);
        push_u64(&mut trailing, 0);
        trailing.push(0xFF);
        assert!(d.restore_state(&trailing).is_err(), "trailing bytes");
    }
}
