//! Cell workloads of the repository benchmark.
//!
//! ```text
//! perfbench-cells --workload <name> --seed N --trace 0|1
//! perfbench-cells --workload paper_tiny --count-mem-ops
//! perfbench-cells --probe
//! ```
//!
//! With `--trace 0` the workload's cells are set up and then simulated
//! once, end to end, through `mda_sim::simulate`; the last stdout line
//! gives the set-up time and each cell's host times. `run.py` repeats such
//! passes and summarises them. With `--trace 1` one untraced pass is
//! followed by the traced and replay passes of [`layers`], and the
//! per-layer metrics are printed instead. `--probe` prints the host's
//! memory latency ([`probe`]), which `run.py` samples between passes.
//!
//! Every simulated cell is checked: the L1 must see every trace memory
//! operation, and the full `SimReport` must match the digest recorded in
//! `digests.txt`, which is compiled in (seeded cells only at
//! [`DEFAULT_SEED`]). Each cell's digest is logged to stderr as
//! `digest <key> <hex>`, the format of the digest file.

mod layers;
mod probe;

use mda_compiler::trace::{count_ops, TraceSource};
use mda_sim::{simulate, HierarchyKind, SimReport, SystemConfig};
use mda_workloads::{HtapWorkload, Kernel};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

/// The seed whose seeded-cell digests are recorded in the digest file.
pub const DEFAULT_SEED: u64 = 1;

/// The expected digests, `<key> <hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// How many times a pass repeats set-up; the median is its set-up time.
const SETUP_REPS: usize = 51;

/// The default-config designs that `fig11`, `fig14`, `fig16` and
/// `ext_energy` share (the baseline plus Fig. 11's plotted designs).
const SHARED_DESIGNS: [HierarchyKind; 4] = [
    HierarchyKind::Baseline1P1L,
    HierarchyKind::P1L2DifferentSet,
    HierarchyKind::P1L2SameSet,
    HierarchyKind::P2L2Sparse,
];

/// One simulation: a trace source on a system configuration. Caches start
/// empty, as in the paper's full-kernel runs.
pub struct Cell {
    label: String,
    /// Whether the trace depends on the workload seed.
    seeded: bool,
    src: Box<dyn TraceSource>,
    cfg: SystemConfig,
}

impl Cell {
    fn kernel(workload: &str, cfg: SystemConfig, kernel: Kernel) -> Cell {
        Cell {
            label: format!("{workload}/{}/{}", cfg.kind.name(), kernel.name()),
            seeded: false,
            src: kernel.build(cfg.default_input),
            cfg,
        }
    }

    fn htap(workload: &str, cfg: SystemConfig, htap: HtapWorkload) -> Cell {
        let label = format!("{workload}/{}/{}", cfg.kind.name(), htap.name());
        Cell {
            label,
            seeded: true,
            src: Box::new(htap),
            cfg,
        }
    }

    /// The digest-file key: seeded cells carry the seed.
    fn key(&self, seed: u64) -> String {
        if self.seeded {
            format!("{}@seed={seed}", self.label)
        } else {
            self.label.clone()
        }
    }
}

/// Builds the cells of `workload`; `None` for an unknown name.
///
/// All cells run at the `tiny` configuration: 4/8/16 KB caches against
/// 64×64 inputs (HTAP: a 2048×64 table), the paper's working-set to
/// capacity ratio. `sim_mix` joins three kinds of traffic; `paper_tiny`
/// lists the cells its experiments share.
pub fn build_cells(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    use HierarchyKind::*;
    let tiny = SystemConfig::tiny;
    let fields = tiny(Baseline1P1L).default_input;
    let cells = match workload {
        "sim_mix" => {
            // Row-only baseline traffic: 8× the MDA op count, and every op
            // trains the stride prefetcher. The htap1 cell is `htap1`'s
            // analytics-dominant mix with the workload seed.
            let rows = [
                Cell::kernel(workload, tiny(Baseline1P1L), Kernel::Strmm),
                Cell::kernel(workload, tiny(Baseline1P1L), Kernel::Sobel),
                Cell::htap(
                    workload,
                    tiny(Baseline1P1L),
                    HtapWorkload::new("htap1", fields, fields.min(128), 256, seed),
                ),
            ];
            // Mostly vector, half column-preferring traffic through the
            // 2-D levels; no prefetcher.
            let mda_2d = [P1L2DifferentSet, P1L2SameSet, P2L2Sparse]
                .map(|kind| Cell::kernel(workload, tiny(kind), Kernel::Sgemm));
            // Random records with about as many memory writes as reads.
            let htap_txn = [Baseline1P1L, P1L2SameSet, P2L2Sparse].map(|kind| {
                Cell::htap(
                    workload,
                    tiny(kind),
                    HtapWorkload::new("htap_txn", fields, 32, 16_384, seed),
                )
            });
            rows.into_iter().chain(mda_2d).chain(htap_txn).collect()
        }
        "paper_tiny" => SHARED_DESIGNS
            .into_iter()
            .flat_map(|kind| Kernel::all().map(|k| Cell::kernel(workload, tiny(kind), k)))
            .collect(),
        _ => return None,
    };
    Some(cells)
}

/// Expected report digests, keyed as [`Cell::key`].
pub type Digests = HashMap<String, u64>;

fn parse_digests(text: &str) -> Result<Digests, String> {
    let mut out = Digests::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(hex), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `<key> <hex digest>`", i + 1));
        };
        let digest = u64::from_str_radix(hex, 16).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.insert(key.to_string(), digest);
    }
    Ok(out)
}

/// FNV-1a over the report's `Debug` text: every counter of the report
/// (all integers) takes part, in a fixed field order.
pub fn digest(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Checks one simulated cell.
pub fn check(cell: &Cell, report: &SimReport, digests: &Digests, seed: u64) -> Result<(), String> {
    let l1 = report.levels.first().map_or(0, |l| l.accesses);
    if l1 != report.ops.mem_ops {
        return Err(format!(
            "l1.accesses {l1} != trace mem-ops {}",
            report.ops.mem_ops
        ));
    }
    let key = cell.key(seed);
    let got = digest(report);
    match digests.get(&key) {
        Some(&want) if want == got => Ok(()),
        Some(&want) => Err(format!("report digest {got:016x} != expected {want:016x}")),
        None if !cell.seeded || seed == DEFAULT_SEED => {
            Err(format!("no expected digest for {key}"))
        }
        None => Ok(()),
    }
}

/// One cell of a pass.
pub struct CellRun {
    /// Host time inside `mda_sim::simulate`.
    pub sim: Duration,
    /// Host time of simulating and checking the cell.
    pub wall: Duration,
    /// `None` where the simulation panicked.
    pub report: Option<SimReport>,
}

/// One untraced pass over a workload's cells.
#[derive(Default)]
pub struct Pass {
    /// Host time of the whole pass.
    pub wall: Duration,
    /// Host time inside `mda_sim::simulate`.
    pub sim: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// One entry per cell, in order.
    pub cells: Vec<CellRun>,
}

/// Simulates every cell once, checking each report. A panicking cell
/// counts as failed, as the figures harness renders it `degraded`.
pub fn run_pass(cells: &[Cell], digests: &Digests, seed: u64) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    for cell in cells {
        pass.attempted += 1;
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| simulate(cell.src.as_ref(), &cell.cfg)));
        let sim = t.elapsed();
        pass.sim += sim;
        let report = match outcome {
            Ok(report) => {
                eprintln!("digest {} {:016x}", cell.key(seed), digest(&report));
                if let Err(why) = check(cell, &report, digests, seed) {
                    eprintln!("FAILED {}: {why}", cell.label);
                    pass.failed += 1;
                }
                Some(report)
            }
            Err(_) => {
                eprintln!("FAILED {}: simulation panicked", cell.label);
                pass.failed += 1;
                None
            }
        };
        let wall = t.elapsed();
        pass.cells.push(CellRun { sim, wall, report });
    }
    pass.wall = start.elapsed();
    pass
}

/// Median of `values`; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A metric as the result object carries it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Set-up before the first simulated access: building the trace sources,
/// validating each configuration and building its hierarchy. Repeated
/// [`SETUP_REPS`] times; returns the cells of the last repetition and the
/// median time.
fn measure_setup(workload: &str, seed: u64) -> Result<(Vec<Cell>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cells =
            build_cells(workload, seed).ok_or_else(|| format!("unknown workload '{workload}'"))?;
        for cell in &cells {
            cell.cfg
                .validate()
                .map_err(|e| format!("{}: {e}", cell.label))?;
            black_box(cell.cfg.build_hierarchy());
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((cells, median(&mut times)))
}

/// One end-to-end pass: set-up, then every cell once. Returns the pass
/// object `run.py` summarises.
fn one_pass(workload: &str, seed: u64, digests: &Digests) -> Result<String, String> {
    let (cells, setup_s) = measure_setup(workload, seed)?;
    let pass = run_pass(&cells, digests, seed);
    let times: Vec<String> = cells
        .iter()
        .zip(&pass.cells)
        .map(|(cell, run)| {
            format!(
                "\"{}\": {{\"sim_s\": {}, \"wall_s\": {}, \"mem_ops\": {}}}",
                cell.label,
                run.sim.as_secs_f64(),
                run.wall.as_secs_f64(),
                run.report.as_ref().map_or(0, |r| r.ops.mem_ops)
            )
        })
        .collect();
    Ok(format!(
        "{{\"attempted\": {}, \"failed\": {}, \"setup_s\": {setup_s}, \"cells\": {{{}}}}}",
        pass.attempted,
        pass.failed,
        times.join(", ")
    ))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-cells --workload <sim_mix|paper_tiny> --seed N --trace 0|1\n       \
         perfbench-cells --workload paper_tiny --count-mem-ops\n       \
         perfbench-cells --probe"
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace) = (None, None, None);
    let mut count_mem_ops = false;
    while let Some(flag) = args.next() {
        if flag == "--probe" {
            println!("{{\"probe_ns\": {}}}", probe::memory_latency_ns());
            return;
        }
        if flag == "--count-mem-ops" {
            count_mem_ops = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage()),
            "--trace" => trace = Some(value == "1"),
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if count_mem_ops {
        // Trace memory operations of the shared tiny cells, counted once
        // per cell; mem-ops depend only on kernel, size and code generator.
        let cells = build_cells(&workload, DEFAULT_SEED).unwrap_or_else(|| usage());
        let total: u64 = cells
            .iter()
            .map(|c| count_ops(c.src.as_ref(), &c.cfg.codegen).mem_ops)
            .sum();
        println!("{{\"mem_ops\": {total}}}");
        return;
    }
    let (Some(seed), Some(trace)) = (seed, trace) else {
        usage()
    };
    let digests = parse_digests(DIGESTS).expect("digests.txt is well-formed");
    let out = if trace {
        layers::traced(&workload, seed, &digests)
    } else {
        one_pass(&workload, seed, &digests)
    };
    match out {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell() -> Cell {
        Cell::kernel(
            "test",
            SystemConfig::tiny(HierarchyKind::P1L2DifferentSet),
            Kernel::Sobel,
        )
    }

    #[test]
    fn a_wrong_expected_digest_fails_the_cell() {
        let cells = [tiny_cell()];
        let report = simulate(cells[0].src.as_ref(), &cells[0].cfg);
        let key = cells[0].key(DEFAULT_SEED);

        let right = Digests::from([(key.clone(), digest(&report))]);
        let pass = run_pass(&cells, &right, DEFAULT_SEED);
        assert_eq!((pass.attempted, pass.failed), (1, 0));

        let wrong = Digests::from([(key, digest(&report) ^ 1)]);
        let pass = run_pass(&cells, &wrong, DEFAULT_SEED);
        assert_eq!((pass.attempted, pass.failed), (1, 1));

        let missing = Digests::new();
        assert_eq!(
            run_pass(&cells, &missing, 7).failed,
            1,
            "unseeded cells always need a digest"
        );
    }

    #[test]
    fn seeded_cells_need_a_digest_only_at_the_default_seed() {
        let cell = Cell::htap(
            "test",
            SystemConfig::tiny(HierarchyKind::Baseline1P1L),
            HtapWorkload::new("htap", 8, 1, 4, 9),
        );
        let report = simulate(cell.src.as_ref(), &cell.cfg);
        assert!(check(&cell, &report, &Digests::new(), 9).is_ok());
        assert!(check(&cell, &report, &Digests::new(), DEFAULT_SEED).is_err());
    }

    #[test]
    fn a_broken_access_count_fails_the_cell() {
        let cell = tiny_cell();
        let mut report = simulate(cell.src.as_ref(), &cell.cfg);
        let digests = Digests::from([(cell.key(DEFAULT_SEED), digest(&report))]);
        report.levels[0].accesses += 1;
        assert!(check(&cell, &report, &digests, DEFAULT_SEED)
            .unwrap_err()
            .contains("l1.accesses"));
    }

    #[test]
    fn digest_file_parses_and_rejects_garbage() {
        let d = parse_digests("# comment\n\na/b 00ff\n").expect("valid file");
        assert_eq!(d["a/b"], 0xff);
        assert!(parse_digests("a/b zz\n").is_err());
        assert!(parse_digests("a/b 1 2\n").is_err());
    }

    #[test]
    fn recorded_digests_cover_every_cell_at_the_default_seed() {
        let digests = parse_digests(DIGESTS).expect("well-formed");
        for w in ["sim_mix", "paper_tiny"] {
            for cell in build_cells(w, DEFAULT_SEED).expect(w) {
                assert!(
                    digests.contains_key(&cell.key(DEFAULT_SEED)),
                    "{}",
                    cell.label
                );
            }
        }
    }

    #[test]
    fn every_workload_builds_and_unknown_names_do_not() {
        for w in ["sim_mix", "paper_tiny"] {
            assert!(!build_cells(w, 3).expect(w).is_empty());
        }
        assert!(build_cells("nope", 3).is_none());
    }
}
