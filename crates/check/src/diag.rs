use dmf_obs::json::{self, ToJson};
use dmf_obs::json_object;
use std::fmt;

/// How bad a finding is.
///
/// `Error` diagnostics mean the artifact violates a hard invariant of the
/// paper's synthesis flow and must not be executed; `Warning` diagnostics
/// flag conventions whose violation degrades quality but not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Convention violated; the artifact is still executable.
    Warning,
    /// Hard invariant violated; the artifact is unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifiers for every rule the checker knows, grouped by the
/// artifact family the rule inspects (`CF*` mixing forest, `SCH*` schedule,
/// `PLC*` placement, `RT*` timed routes, `PLN*` whole-plan aggregates).
///
/// Codes are append-only: a code, once published, keeps its meaning so that
/// JSONL exports remain comparable across versions. See DESIGN.md §11 for
/// the full catalogue and the procedure for adding a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RuleCode {
    /// Mix node's stored mixture differs from the (1:1) mix of its operands.
    Cf001,
    /// CF denominator does not divide `2^d` (dyadic level exceeds accuracy).
    Cf002,
    /// Root mixture differs from the target ratio.
    Cf003,
    /// Droplet conservation broken: over-consumed, dangling or root-consumed
    /// droplets, or an operand referencing a node outside the graph.
    Cf004,
    /// Zero-waste theorem violated: `W > 0` although `D = p·2^d` (§4.1).
    Cf005,
    /// Forest shape wrong: tree count differs from `⌈D/2⌉`.
    Cf006,
    /// Schedule does not cover the graph (size mismatch / unscheduled node).
    Sch001,
    /// Precedence violated: a node runs no later than one of its operands.
    Sch002,
    /// Mixer occupancy exceeds the mixer budget `Mc` in some cycle.
    Sch003,
    /// Mixer double-booked in a cycle, or mixer index out of range.
    Sch004,
    /// Independent storage recount disagrees with the claimed `q'`
    /// (Algorithm 3 cross-check).
    Sch005,
    /// Module footprint outside the electrode array.
    Plc001,
    /// Module footprints overlap or violate the one-cell guard band.
    Plc002,
    /// Dead electrode under a module footprint.
    Plc003,
    /// World-facing module (reservoir / waste / output) not on the chip
    /// boundary (warning).
    Plc004,
    /// Route leaves the grid, crosses a blocked cell, or is empty /
    /// mismatched against its request.
    Rt001,
    /// Route teleports: consecutive cells are not equal or orthogonally
    /// adjacent.
    Rt002,
    /// Static fluidic constraint violated: two droplets within one cell of
    /// each other at the same step.
    Rt003,
    /// Dynamic fluidic constraint violated: a droplet within one cell of
    /// another droplet's position at `t ± 1`.
    Rt004,
    /// Pin assignment malformed: wrong grid dimensions for the chip, or
    /// groups that do not partition the electrode array.
    Pin001,
    /// Pin group self-hazard: two electrodes sharing a pin closer than the
    /// minimum self-safe spacing (a droplet would drag its own ghost).
    Pin002,
    /// Concurrent-route co-activation hazard: an actuation's ghost fires
    /// inside another droplet's fluidic exclusion zone at some step.
    Pin003,
    /// Program replay under the pin backend hits a co-activation hazard
    /// (or fails to replay at all).
    Pin004,
    /// Pass demands do not cover the plan demand.
    Pln001,
    /// Plan aggregates (`Tc`, `Tms`, `W`, `I`, `q`) disagree with an
    /// independent recount over the passes.
    Pln002,
    /// Cross-contamination: two reagent-disjoint droplet lineages occupy
    /// the same module cell with overlapping residency (no wash window).
    Flow001,
    /// Dataflow malformed: the program's droplet lineage graph cannot be
    /// constructed soundly (use-before-dispense, double-consume, misplaced
    /// operand, wrong module kind, or a same-lineage collision).
    Flow002,
    /// Volume conservation broken: the per-pass droplet ledger does not
    /// prove dispensed = emitted + discarded (a droplet leaked on-array or
    /// the program disagrees with the pass's declared aggregates).
    Flow003,
    /// Mixability: the CF vector is unreachable under the (1:1)-mix
    /// algebra (component sum is not a power of two).
    Feas001,
    /// Unpreparable request: degenerate target or demand (empty/all-zero
    /// parts, accuracy beyond `2^62`, fewer than two active fluids, or a
    /// zero demand).
    Feas002,
}

impl RuleCode {
    /// Every rule, in catalogue order.
    pub const ALL: [RuleCode; 30] = [
        RuleCode::Cf001,
        RuleCode::Cf002,
        RuleCode::Cf003,
        RuleCode::Cf004,
        RuleCode::Cf005,
        RuleCode::Cf006,
        RuleCode::Sch001,
        RuleCode::Sch002,
        RuleCode::Sch003,
        RuleCode::Sch004,
        RuleCode::Sch005,
        RuleCode::Plc001,
        RuleCode::Plc002,
        RuleCode::Plc003,
        RuleCode::Plc004,
        RuleCode::Rt001,
        RuleCode::Rt002,
        RuleCode::Rt003,
        RuleCode::Rt004,
        RuleCode::Pin001,
        RuleCode::Pin002,
        RuleCode::Pin003,
        RuleCode::Pin004,
        RuleCode::Pln001,
        RuleCode::Pln002,
        RuleCode::Flow001,
        RuleCode::Flow002,
        RuleCode::Flow003,
        RuleCode::Feas001,
        RuleCode::Feas002,
    ];

    /// Parses a stable textual code (`"FLOW001"`, case-insensitive) back
    /// into its rule; `None` for unknown codes.
    pub fn parse(text: &str) -> Option<RuleCode> {
        let upper = text.to_ascii_uppercase();
        RuleCode::ALL.into_iter().find(|rule| rule.code() == upper)
    }

    /// The stable textual code (`"CF001"`, `"SCH003"`, …).
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::Cf001 => "CF001",
            RuleCode::Cf002 => "CF002",
            RuleCode::Cf003 => "CF003",
            RuleCode::Cf004 => "CF004",
            RuleCode::Cf005 => "CF005",
            RuleCode::Cf006 => "CF006",
            RuleCode::Sch001 => "SCH001",
            RuleCode::Sch002 => "SCH002",
            RuleCode::Sch003 => "SCH003",
            RuleCode::Sch004 => "SCH004",
            RuleCode::Sch005 => "SCH005",
            RuleCode::Plc001 => "PLC001",
            RuleCode::Plc002 => "PLC002",
            RuleCode::Plc003 => "PLC003",
            RuleCode::Plc004 => "PLC004",
            RuleCode::Rt001 => "RT001",
            RuleCode::Rt002 => "RT002",
            RuleCode::Rt003 => "RT003",
            RuleCode::Rt004 => "RT004",
            RuleCode::Pin001 => "PIN001",
            RuleCode::Pin002 => "PIN002",
            RuleCode::Pin003 => "PIN003",
            RuleCode::Pin004 => "PIN004",
            RuleCode::Pln001 => "PLN001",
            RuleCode::Pln002 => "PLN002",
            RuleCode::Flow001 => "FLOW001",
            RuleCode::Flow002 => "FLOW002",
            RuleCode::Flow003 => "FLOW003",
            RuleCode::Feas001 => "FEAS001",
            RuleCode::Feas002 => "FEAS002",
        }
    }

    /// One-line summary of what the rule enforces.
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::Cf001 => "mix node content must equal the 1:1 mix of its operands",
            RuleCode::Cf002 => "CF denominators must divide 2^d",
            RuleCode::Cf003 => "root mixtures must equal the target ratio",
            RuleCode::Cf004 => "every droplet pair feeds 1..=2 consumers; roots feed none",
            RuleCode::Cf005 => "W = 0 whenever D = p*2^d (zero-waste theorem)",
            RuleCode::Cf006 => "a demand-D forest has ceil(D/2) component trees",
            RuleCode::Sch001 => "every mix node is scheduled exactly once",
            RuleCode::Sch002 => "operands execute strictly before their consumer",
            RuleCode::Sch003 => "per-cycle mixer occupancy stays within Mc",
            RuleCode::Sch004 => "one node per mixer per cycle, mixers within range",
            RuleCode::Sch005 => "independent storage recount equals the claimed q'",
            RuleCode::Plc001 => "module footprints stay on the electrode array",
            RuleCode::Plc002 => "module footprints keep a one-cell guard band",
            RuleCode::Plc003 => "no module sits on a diagnosed-dead electrode",
            RuleCode::Plc004 => "world-facing modules sit on the chip boundary",
            RuleCode::Rt001 => "routes stay on passable cells and match their request",
            RuleCode::Rt002 => "routes move at most one orthogonal cell per step",
            RuleCode::Rt003 => "droplets keep one cell apart at every step",
            RuleCode::Rt004 => "droplets keep one cell apart across adjacent steps",
            RuleCode::Pin001 => "pin assignments cover the chip and partition its electrodes",
            RuleCode::Pin002 => "pin-sharing electrodes keep the minimum self-safe spacing",
            RuleCode::Pin003 => "no route step ghost-fires inside another droplet's zone",
            RuleCode::Pin004 => "programs replay cleanly under the pin backend",
            RuleCode::Pln001 => "pass demands cover the plan demand exactly",
            RuleCode::Pln002 => "plan aggregates match an independent recount",
            RuleCode::Flow001 => "reagent-disjoint lineages never share a cell without a wash",
            RuleCode::Flow002 => "programs replay as a sound droplet dataflow graph",
            RuleCode::Flow003 => "dispensed volume equals emitted + discarded (no leaks)",
            RuleCode::Feas001 => "CF vectors are reachable under the (1:1)-mix algebra",
            RuleCode::Feas002 => "requests name a preparable target and a positive demand",
        }
    }

    /// The severity this rule reports at.
    pub fn severity(self) -> Severity {
        match self {
            RuleCode::Plc004 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Long-form documentation of the rule: what it enforces, why the
    /// invariant matters for the paper's synthesis flow, and what a
    /// violation usually indicates. Rendered by `dmfstream check
    /// --explain CODE`; every rule has non-empty text (a meta-test
    /// enforces this).
    pub fn explain(self) -> &'static str {
        match self {
            RuleCode::Cf001 => {
                "Every internal vertex of a mixing graph is one (1:1) mix-split: its stored \
                 mixture must be exactly (a + b) / 2 of its two operand mixtures, computed in \
                 the dyadic CF arithmetic the checker re-implements from scratch. A mismatch \
                 means the forest does not compute the chemistry it claims — the resulting \
                 droplets would carry a different concentration vector than the plan reports."
            }
            RuleCode::Cf002 => {
                "All concentration factors in a depth-d synthesis are dyadic rationals with \
                 denominator dividing 2^d: each (1:1) mix halves volumes, so no other \
                 denominators can arise. A CF whose reduced denominator does not divide 2^d \
                 cannot be produced by any sequence of balanced mix-splits and indicates a \
                 corrupted or hand-edited node mixture."
            }
            RuleCode::Cf003 => {
                "The root of every component tree must store exactly the target ratio. Roots \
                 are what the plan emits as target droplets; a root holding any other mixture \
                 means the assay receives the wrong fluid even if every intermediate step is \
                 internally consistent."
            }
            RuleCode::Cf004 => {
                "Droplet conservation inside the forest: every non-root vertex produces two \
                 droplets consumed by one or two later mix vertices (the unconsumed one, if \
                 any, is waste), roots feed no one, and every operand reference points inside \
                 the graph. Violations (over-consumed, dangling or root-consumed droplets) \
                 mean the forest's droplet bookkeeping is inconsistent and its W/I statistics \
                 are meaningless."
            }
            RuleCode::Cf005 => {
                "The paper's zero-waste theorem (§4.1): when the demand D is p·2^d for the \
                 target's accuracy d, the mixing forest can and must consume every \
                 intermediate droplet — W = 0. Positive waste under such a demand means the \
                 forest constructor failed to chain its trees through the waste pool."
            }
            RuleCode::Cf006 => {
                "A demand-D mixing forest streams two target droplets per component tree, so \
                 it must contain exactly ceil(D/2) trees. Any other count means the forest \
                 either under-produces the demand or silently over-produces (wasting \
                 reactant)."
            }
            RuleCode::Sch001 => {
                "The schedule must cover the forest exactly: every mix vertex appears in \
                 exactly one (cycle, mixer) slot and the schedule contains no vertices \
                 outside the graph. An unscheduled vertex would never execute; a duplicated \
                 one would execute twice."
            }
            RuleCode::Sch002 => {
                "Dataflow precedence: a mix vertex consumes its operands' droplets, so it \
                 must be scheduled strictly after both operand vertices. An inversion means \
                 the schedule asks a mixer to mix droplets that do not exist yet."
            }
            RuleCode::Sch003 => {
                "In any cycle, the number of concurrently executing mix vertices must stay \
                 within the mixer budget Mc the plan claims. Exceeding it means the schedule \
                 cannot run on the chip the plan was costed for."
            }
            RuleCode::Sch004 => {
                "Mixer slots are exclusive: one vertex per mixer per cycle, and every mixer \
                 index must lie within the budget. Double-booking a mixer or addressing a \
                 mixer outside the chip means the schedule is physically unexecutable."
            }
            RuleCode::Sch005 => {
                "Storage accounting: the checker re-counts storage units with an independent \
                 event sweep (a second implementation of the paper's Algorithm 3) and the \
                 result must equal the claimed q'. A mismatch means the plan under- or \
                 over-reports its storage footprint — the quantity multi-pass splitting is \
                 budgeted against."
            }
            RuleCode::Plc001 => {
                "Every module footprint must lie fully on the electrode array. A module \
                 hanging off the edge has electrodes that do not exist; droplets routed into \
                 it would leave the chip."
            }
            RuleCode::Plc002 => {
                "Module footprints must not overlap and must keep a one-cell guard band so \
                 a droplet inside one module cannot accidentally merge with a droplet in an \
                 adjacent module. Guard-band violations are latent cross-contamination sites."
            }
            RuleCode::Plc003 => {
                "No module may sit on an electrode diagnosed dead: a dead electrode cannot \
                 actuate, so droplets entering the footprint would strand. Placements must \
                 route around the chip's current fault map."
            }
            RuleCode::Plc004 => {
                "Convention (warning): world-facing modules — reservoirs, waste ports, \
                 output ports — belong on the chip boundary where tubing can reach them. An \
                 interior reservoir still simulates correctly but cannot be built."
            }
            RuleCode::Rt001 => {
                "A timed route must start at its request's source, end at its sink, stay on \
                 the grid and avoid blocked cells (module interiors, dead electrodes). Any \
                 excursion means the route does not implement its transport request."
            }
            RuleCode::Rt002 => {
                "Electrode actuation moves a droplet to an orthogonally adjacent cell (or \
                 holds it). A route step that jumps farther is a teleport the hardware \
                 cannot perform."
            }
            RuleCode::Rt003 => {
                "Static fluidic constraint: two concurrently routed droplets must never be \
                 within one cell of each other at the same timestep, or they would merge on \
                 contact."
            }
            RuleCode::Rt004 => {
                "Dynamic fluidic constraint: a droplet must also keep one cell of clearance \
                 against every other droplet's position one step earlier and later, or \
                 trailing charge can drag the pair together between steps."
            }
            RuleCode::Pin001 => {
                "A pin assignment must cover the chip exactly: the pin grid has the chip's \
                 dimensions and the pin groups partition the electrode set. Anything else \
                 means some electrode is unaddressable or doubly driven."
            }
            RuleCode::Pin002 => {
                "Electrodes sharing one pin must keep the minimum self-safe spacing (3 \
                 cells): actuating a droplet on one electrode ghost-actuates every \
                 group-mate, and a ghost within two cells of the droplet itself would drag \
                 it off its route."
            }
            RuleCode::Pin003 => {
                "Under shared pins, each actuation of one route fires ghost electrodes \
                 elsewhere; none may land inside another concurrently moving droplet's \
                 fluidic exclusion zone. The checker re-derives ghost sets from raw group \
                 data, independent of the backend that produced them."
            }
            RuleCode::Pin004 => {
                "Whole-program replay under the pin backend: executing the realized \
                 instruction stream with ghost semantics must never put a harmful \
                 co-activation next to a parked or moving droplet, and must replay at all. \
                 This is the end-to-end pin-safety gate over a full pass."
            }
            RuleCode::Pln001 => {
                "The per-pass demands of a streaming plan must sum to exactly the requested \
                 demand D. A shortfall under-delivers the assay; an overshoot silently burns \
                 reactant."
            }
            RuleCode::Pln002 => {
                "The plan's headline aggregates (Tc, Tms, W, I, I[], q) must equal an \
                 independent recount over its passes' forests and schedules. These numbers \
                 are what tables, benchmarks and the serve API report — they must not drift \
                 from the artifacts."
            }
            RuleCode::Flow001 => {
                "Cross-contamination: the dataflow analysis tracks every droplet's reagent \
                 set (its lineage) and its residency on module cells. Two droplets whose \
                 reagent sets are disjoint must never occupy one module cell with \
                 overlapping residency — between a departure and the next arrival the \
                 executor gets a wash window, but simultaneous residency of foreign \
                 lineages means residue of one assay chemical is carried into another. The \
                 diagnostic names both droplets with their full module trails and reagent \
                 sets."
            }
            RuleCode::Flow002 => {
                "Sound dataflow: replaying the instruction stream must define every droplet \
                 before use (dispense or mix-split output), consume it at most once, find \
                 mix operands at the executing mixer, match store/fetch cells, address the \
                 right module kinds (dispense at reservoirs, discard at waste, emit at \
                 outputs), and never collide two droplets of a shared lineage on one cell. \
                 Any violation makes the lineage graph — and therefore every other flow \
                 guarantee — unsound."
            }
            RuleCode::Flow003 => {
                "Volume conservation: a (1:1) mix-split consumes two unit droplets and \
                 produces two, so over a whole pass every dispensed droplet must end \
                 emitted, discarded to waste, or consumed into another droplet — the ledger \
                 proves dispensed = emitted + discarded, with nothing left on-array. A \
                 leftover droplet is a leak (an off-by-one in the pass compiler); a ledger \
                 that disagrees with the pass's declared I/W/D' means the program and the \
                 plan tell different stories."
            }
            RuleCode::Feas001 => {
                "Mixability pre-pass: every droplet produced by (1:1) mix-splits of pure \
                 reagents has CF vector a/2^d — dyadic coordinates over a power-of-two \
                 denominator. A ratio whose component sum is not a power of two therefore \
                 names a mixture no mixing tree can reach, at any depth; the request is \
                 rejected before planning instead of failing deep inside tree construction."
            }
            RuleCode::Feas002 => {
                "Preparable-request pre-pass: a target must have at least one component, a \
                 non-zero component vector, an accuracy within the dyadic range (sum ≤ \
                 2^62), at least two active fluids (a pure reagent needs dispensing, not \
                 mixing), and a demand of at least one droplet. Degenerate requests are \
                 rejected up front with this code rather than surfacing as internal \
                 planner errors."
            }
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Span-like location of a finding inside its artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The whole artifact (no finer location applies).
    Artifact,
    /// A mix-split vertex, by arena index (renders as `n3`).
    Node(u32),
    /// A schedule timestep (1-based, renders as `t=4`).
    Cycle(u32),
    /// A chip module, by name.
    Module(String),
    /// An electrode.
    Cell {
        /// Column.
        x: i32,
        /// Row.
        y: i32,
    },
    /// A step of one timed route (droplet = request index).
    Droplet {
        /// Index of the route request.
        index: usize,
        /// Time step within the route.
        step: usize,
    },
    /// A pass of a streaming plan (0-based).
    Pass(usize),
    /// An instruction of a realized chip program, by stream index
    /// (renders as `i42`).
    Instr(usize),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Artifact => write!(f, "-"),
            Location::Node(i) => write!(f, "n{i}"),
            Location::Cycle(t) => write!(f, "t={t}"),
            Location::Module(name) => f.write_str(name),
            Location::Cell { x, y } => write!(f, "({x},{y})"),
            Location::Droplet { index, step } => write!(f, "d{index}@t{step}"),
            Location::Pass(i) => write!(f, "pass {}", i + 1),
            Location::Instr(i) => write!(f, "i{i}"),
        }
    }
}

/// One finding: a violated rule, where it was observed and a human-readable
/// explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleCode,
    /// Severity (defaults to the rule's own severity).
    pub severity: Severity,
    /// Where the violation was observed.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the rule's default severity.
    pub fn new(rule: RuleCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic { rule, severity: rule.severity(), location, message: message.into() }
    }
}

/// One JSON object, `{"rule":…,"severity":…,"location":…,"message":…}`.
impl ToJson for Diagnostic {
    fn write_json(&self, out: &mut String) {
        json_object!("rule": self.rule.to_string(), "severity": self.severity.to_string(),
            "location": self.location.to_string(), "message": &self.message)
        .write_json(out);
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] at {}: {}", self.severity, self.rule, self.location, self.message)
    }
}

/// The outcome of a checker pass: an ordered list of [`Diagnostic`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// Records a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Records a finding at the rule's default severity.
    pub fn report(&mut self, rule: RuleCode, location: Location, message: impl Into<String>) {
        self.push(Diagnostic::new(rule, location, message));
    }

    /// Absorbs another report's findings.
    pub fn merge(&mut self, other: CheckReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether no finding at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether no *error*-severity finding was recorded (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether some finding carries the given rule code.
    pub fn has(&self, rule: RuleCode) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Renders the findings through the shared [`dmf_obs::Table`] writer.
    pub fn table(&self) -> dmf_obs::Table {
        let mut table = dmf_obs::Table::new(["severity", "rule", "location", "message"]);
        for d in &self.diagnostics {
            table.row([
                d.severity.to_string(),
                d.rule.to_string(),
                d.location.to_string(),
                d.message.clone(),
            ]);
        }
        table
    }

    /// All findings as JSON lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&json::write(d));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "check: clean (0 diagnostics)");
        }
        writeln!(f, "check: {} error(s), {} warning(s)", self.error_count(), self.warning_count())?;
        write!(f, "{}", self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for rule in RuleCode::ALL {
            assert!(seen.insert(rule.code()), "duplicate code {}", rule.code());
            assert!(!rule.summary().is_empty());
        }
        assert_eq!(RuleCode::Cf001.code(), "CF001");
        assert_eq!(RuleCode::Sch005.code(), "SCH005");
        assert_eq!(RuleCode::Flow001.code(), "FLOW001");
        assert_eq!(RuleCode::Feas002.code(), "FEAS002");
        assert_eq!(RuleCode::Plc004.severity(), Severity::Warning);
        assert_eq!(RuleCode::Rt002.severity(), Severity::Error);
        assert_eq!(RuleCode::Feas001.severity(), Severity::Error);
    }

    #[test]
    fn codes_parse_back() {
        for rule in RuleCode::ALL {
            assert_eq!(RuleCode::parse(rule.code()), Some(rule));
            assert_eq!(RuleCode::parse(&rule.code().to_lowercase()), Some(rule));
        }
        assert_eq!(RuleCode::parse("FLOW999"), None);
        assert_eq!(RuleCode::parse(""), None);
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut report = CheckReport::new();
        assert!(report.is_clean() && report.is_empty());
        report.report(RuleCode::Plc004, Location::Module("R1".into()), "not on boundary");
        assert!(report.is_clean(), "warnings leave the report clean");
        report.report(RuleCode::Cf001, Location::Node(3), "got <1:1>/2, stored <3:1>/4");
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has(RuleCode::Cf001));
        assert!(!report.has(RuleCode::Rt001));
        let text = report.table().to_string();
        assert!(text.contains("CF001") && text.contains("n3"));
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            dmf_obs::json::parse(line).expect("valid JSON");
        }
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::new(RuleCode::Rt003, Location::Droplet { index: 1, step: 4 }, "x");
        assert_eq!(d.to_string(), "error[RT003] at d1@t4: x");
        assert_eq!(Location::Cell { x: 2, y: 5 }.to_string(), "(2,5)");
        assert_eq!(Location::Cycle(7).to_string(), "t=7");
        assert_eq!(Location::Pass(0).to_string(), "pass 1");
    }
}
