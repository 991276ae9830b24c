//! Seeded inputs and their DP-oracle outputs, all built before any timed
//! window opens.

use std::sync::Arc;
use std::time::Duration;

use odburg::codegen::{reduce_forest, Reduction};
use odburg::frontend::programs::{self, BenchProgram};
use odburg::grammar::{Cost, NormalGrammar};
use odburg::ir::{parse_sexpr, to_sexpr, Forest, SexprError};
use odburg::prelude::{DpLabeler, Labeler};
use odburg::workloads::paced_traffic;

/// The real targets a MiniC session compiles for (`demo` covers only
/// the paper's running example).
pub const MINIC_TARGETS: [&str; 5] = ["x86ish", "riscish", "sparcish", "alphaish", "jvmish"];

/// Seed offset that gives `serve_cold` a stream of its own.
const COLD_STREAM: u64 = 0xC01D_57EA_4D00_0000;

/// A job's expected output: what `DpLabeler` + `reduce_forest` emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Emitted instructions, in order.
    pub instructions: Vec<String>,
    /// Total derivation cost.
    pub total_cost: Cost,
}

impl Expected {
    /// Whether `reduction` is byte-identical to the oracle's output.
    pub fn matches(&self, reduction: &Reduction) -> bool {
        reduction.total_cost == self.total_cost && reduction.instructions == self.instructions
    }
}

/// Runs the DP oracle on `forest`.
///
/// # Errors
///
/// The labeling or reduction error, as text.
pub fn oracle(forest: &Forest, grammar: &Arc<NormalGrammar>) -> Result<Expected, String> {
    let mut dp = DpLabeler::new(Arc::clone(grammar));
    let labeling = dp.label_forest(forest).map_err(|e| e.to_string())?;
    let red = reduce_forest(forest, grammar, &labeling).map_err(|e| e.to_string())?;
    Ok(Expected {
        instructions: red.instructions,
        total_cost: red.total_cost,
    })
}

/// Parses one job's text, one tree per line, as the CLI `serve` loop
/// reads an s-expr file.
///
/// # Errors
///
/// The first malformed tree.
pub fn parse_job(text: &str) -> Result<Forest, SexprError> {
    let mut forest = Forest::new();
    for line in text.lines() {
        let root = parse_sexpr(&mut forest, line)?;
        forest.add_root(root);
    }
    Ok(forest)
}

/// One job of a serve stream.
#[derive(Debug)]
pub struct ServeJob {
    /// Index into [`ServeStream::targets`].
    pub target: usize,
    /// The s-expr text the client parses.
    pub text: String,
    /// IR nodes the text parses to.
    pub nodes: usize,
    /// Scheduled arrival, relative to the start of its pass.
    pub at: Duration,
    /// The oracle's output.
    pub expected: Expected,
}

/// A pass of mixed traffic over every built-in target.
#[derive(Debug)]
pub struct ServeStream {
    /// Target names and grammars.
    pub targets: Vec<(String, Arc<NormalGrammar>)>,
    /// The jobs, in arrival order.
    pub jobs: Vec<ServeJob>,
    /// Length of one pass on the arrival schedule.
    pub span: Duration,
}

impl ServeStream {
    /// `jobs` jobs of `paced_traffic` on `seed` (on a seed of its own for
    /// `cold`), arriving at `rate` per second on average; closed loops
    /// ignore the schedule.
    ///
    /// # Errors
    ///
    /// A job the oracle cannot select, or whose text does not re-parse.
    pub fn generate(seed: u64, cold: bool, jobs: usize, rate: f64) -> Result<ServeStream, String> {
        let targets: Vec<(String, Arc<NormalGrammar>)> = odburg::targets::all()
            .iter()
            .map(|g| (g.name().to_owned(), Arc::new(g.normalize())))
            .collect();
        let refs: Vec<(&str, &NormalGrammar)> = targets
            .iter()
            .map(|(name, g)| (name.as_str(), g.as_ref()))
            .collect();
        let seed = if cold { seed ^ COLD_STREAM } else { seed };
        let mean_gap = Duration::from_secs_f64(1.0 / rate.max(1.0));
        let mut out = Vec::with_capacity(jobs);
        for paced in paced_traffic(&refs, seed, jobs, mean_gap) {
            let target = targets
                .iter()
                .position(|(name, _)| *name == paced.job.target)
                .expect("traffic is addressed to built-in targets");
            let forest = &paced.job.forest;
            let text = forest
                .roots()
                .iter()
                .map(|&root| to_sexpr(forest, root))
                .collect::<Vec<_>>()
                .join("\n");
            let parsed = parse_job(&text).map_err(|e| format!("generated text re-parses: {e}"))?;
            let expected = oracle(&parsed, &targets[target].1)
                .map_err(|e| format!("{}: oracle: {e}", paced.job.target))?;
            out.push(ServeJob {
                target,
                text,
                nodes: parsed.len(),
                at: paced.at,
                expected,
            });
        }
        let span = out.last().map_or(Duration::ZERO, |j| j.at) + mean_gap;
        Ok(ServeStream {
            targets,
            jobs: out,
            span,
        })
    }
}

/// The MiniC suite across [`MINIC_TARGETS`], with oracle outputs.
#[derive(Debug)]
pub struct MinicSuite {
    /// The programs.
    pub programs: Vec<BenchProgram>,
    /// `expected[program][target]`, targets in [`MINIC_TARGETS`] order.
    pub expected: Vec<Vec<Expected>>,
}

impl MinicSuite {
    /// Compiles every program and runs the oracle on every target.
    ///
    /// # Errors
    ///
    /// A program that does not compile, or a pair the oracle cannot select.
    pub fn build() -> Result<MinicSuite, String> {
        let programs = programs::all();
        let targets: Vec<(String, Arc<NormalGrammar>)> = MINIC_TARGETS
            .iter()
            .map(|&name| {
                let g = odburg::targets::by_name(name).expect("built-in target");
                (name.to_owned(), Arc::new(g.normalize()))
            })
            .collect();
        let mut expected = Vec::new();
        for p in &programs {
            let forest = p.compile().map_err(|e| format!("{}: {e}", p.name))?;
            let row = targets
                .iter()
                .map(|(name, g)| oracle(&forest, g).map_err(|e| format!("{}/{name}: {e}", p.name)))
                .collect::<Result<Vec<_>, _>>()?;
            expected.push(row);
        }
        Ok(MinicSuite { programs, expected })
    }

    /// Every (program, target) pair in a seeded order; `pass` selects a
    /// fresh shuffle per pass.
    pub fn order(&self, seed: u64, pass: u64) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = (0..self.programs.len())
            .flat_map(|p| (0..MINIC_TARGETS.len()).map(move |t| (p, t)))
            .collect();
        let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for i in (1..pairs.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            pairs.swap(i, j);
        }
        pairs
    }
}

/// One step of the splitmix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
