//! Traced mode: per-layer metrics of one workload.
//!
//! Everything here is measured from outside the simulator, around calls
//! into each layer's public functions, in passes kept apart from the
//! end-to-end timing:
//!
//! 1. an untraced pass (`mda_sim::simulate`), the reference reports and
//!    the baseline of `bench.trace_overhead_frac`;
//! 2. a traced pass that re-creates `simulate`'s loop from `Core` and
//!    `Hierarchy`, timing every `Hierarchy::demand` call; its report must
//!    equal the untraced one exactly;
//! 3. trace generation alone, into a counting sink;
//! 4. isolated replays of the demand stream through a standalone L1 and
//!    stride prefetcher, and of the L1 replay's fills and writebacks
//!    through a standalone main memory. A replay skips the levels in
//!    between, so `run.py` prints its figures beside the in-situ ones.
//!
//! Counts come from the reports and repeat exactly; host times do not.

use crate::{build_cells, digest, metric, ratio, run_pass, Cell, Digests, Metric};
use mda_cache::{
    Access, AccessWidth, CacheLevel, CacheStats, LevelKind, Probe, StridePrefetcher, Writeback,
};
use mda_compiler::trace::{OpCounts, TraceOp};
use mda_compiler::MemOp;
use mda_mem::{Cycle, LineKey, MainMemory, Orientation};
use mda_sim::occupancy::OccupancyTimeline;
use mda_sim::{Core, SimReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Demand latencies below this many ns get exact 1-ns bins.
const LINEAR_NS: usize = 1 << 14;

/// Trace memory operations replayed per batch: the replays time whole
/// batches, not single calls.
const BATCH: usize = 1 << 15;

/// Per-level metric names, L1 first.
#[rustfmt::skip]
const LEVEL_METRICS: [[&str; 6]; 3] = [
    ["l1.accesses", "l1.hit_rate", "l1.fills", "l1.writebacks_out", "l1.extra_tag_accesses", "l1.dup_evictions"],
    ["l2.accesses", "l2.hit_rate", "l2.fills", "l2.writebacks_out", "l2.extra_tag_accesses", "l2.dup_evictions"],
    ["l3.accesses", "l3.hit_rate", "l3.fills", "l3.writebacks_out", "l3.extra_tag_accesses", "l3.dup_evictions"],
];

/// Host-time histogram of `Hierarchy::demand` calls.
struct Hist {
    linear: Vec<u64>,
    /// Power-of-two bins for latencies of `LINEAR_NS` ns and more.
    log2: [u64; 64],
    count: u64,
    total_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            linear: vec![0; LINEAR_NS],
            log2: [0; 64],
            count: 0,
            total_ns: 0,
        }
    }
}

impl Hist {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        match self.linear.get_mut(ns as usize) {
            Some(bin) => *bin += 1,
            None => self.log2[63 - ns.leading_zeros() as usize] += 1,
        }
    }

    /// The `q`-quantile in ns (a power-of-two bin's lower edge above
    /// `LINEAR_NS`).
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (ns, n) in self.linear.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as f64;
            }
        }
        for (bit, n) in self.log2.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << bit) as f64;
            }
        }
        0.0
    }
}

/// Per-level counters summed over a workload's cells.
#[derive(Default)]
struct LevelSums {
    accesses: u64,
    hits: u64,
    fills: u64,
    writebacks_out: u64,
    extra_tag_accesses: u64,
    dup_evictions: u64,
}

impl LevelSums {
    fn add(&mut self, s: &CacheStats) {
        self.accesses += s.accesses;
        self.hits += s.hits;
        self.fills += s.demand_fills + s.prefetch_fills;
        self.writebacks_out += s.writebacks_out;
        self.extra_tag_accesses += s.extra_tag_accesses;
        self.dup_evictions += s.dup_evictions;
    }
}

/// Everything the traced passes accumulate over a workload's cells.
#[derive(Default)]
struct Acc {
    loop_s: f64,
    demand: Hist,
    retired_uops: u64,
    cycles: u64,
    levels: [LevelSums; 3],
    mshr_coalesced: u64,
    mshr_stalls: u64,
    prefetch_fills: u64,
    mem_reads: u64,
    mem_writes: u64,
    mem_buffer_hits: u64,
    mem_activations: u64,
    mem_write_drain_stalls: u64,
    gen_s: f64,
    gen_mem_ops: u64,
    gen_vector: u64,
    gen_col: u64,
    gen_write: u64,
    l1_replay_s: f64,
    l1_replay_accesses: u64,
    l1_replay_hits: u64,
    pf_replay_s: f64,
    pf_observed: u64,
    pf_targets: u64,
    mem_replay_s: f64,
    mem_replay_reqs: u64,
    mem_replay_reads: u64,
    mem_replay_hits: u64,
}

impl Acc {
    fn add_report(&mut self, r: &SimReport) {
        self.cycles += r.cycles;
        for (sums, s) in self.levels.iter_mut().zip(&r.levels) {
            sums.add(s);
        }
        self.mshr_coalesced += r.levels.iter().map(|l| l.mshr_coalesced).sum::<u64>();
        self.mshr_stalls += r.levels.iter().map(|l| l.mshr_stalls).sum::<u64>();
        self.prefetch_fills += r.levels.first().map_or(0, |l| l.prefetch_fills);
        self.mem_reads += r.mem.reads;
        self.mem_writes += r.mem.writes;
        self.mem_buffer_hits += r.mem.buffer_hits;
        self.mem_activations += r.mem.activations;
        self.mem_write_drain_stalls += r.mem.write_drain_stalls;
    }
}

/// `simulate`'s loop, re-created from the public `Core` and `Hierarchy`
/// calls, with every demand access timed.
fn traced_cell(cell: &Cell, acc: &mut Acc) -> SimReport {
    let start = Instant::now();
    let mut hierarchy = cell.cfg.build_hierarchy();
    let mut core = Core::new(cell.cfg.core);
    let mut ops = OpCounts::default();
    let demand = &mut acc.demand;
    cell.src.generate(&cell.cfg.codegen, &mut |op| match op {
        TraceOp::Compute(n) => {
            ops.compute_uops += u64::from(n);
            core.issue_compute(n);
        }
        TraceOp::Mem(m) => {
            ops.mem_ops += 1;
            ops.bytes += m.bytes();
            ops.vector_mem_ops += u64::from(m.vector);
            core.issue_mem(|at| {
                let t = Instant::now();
                let done = hierarchy.demand(&m, at);
                demand.record(t.elapsed().as_nanos() as u64);
                done
            });
        }
    });
    let cycles = core.finish();
    acc.loop_s += start.elapsed().as_secs_f64();
    acc.retired_uops += core.retired_uops();
    SimReport {
        workload: cell.src.name().to_string(),
        design: cell.cfg.kind.name().to_string(),
        cycles,
        levels: hierarchy.levels().iter().map(|l| *l.stats()).collect(),
        mem: *hierarchy.memory().stats(),
        ops,
        occupancy: OccupancyTimeline::new(),
    }
}

/// Trace generation alone, into a sink that only counts.
fn generate_cell(cell: &Cell, acc: &mut Acc) {
    let mut c = [0u64; 4];
    let start = Instant::now();
    cell.src.generate(&cell.cfg.codegen, &mut |op| {
        if let TraceOp::Mem(m) = op {
            c[0] += 1;
            c[1] += u64::from(m.vector);
            c[2] += u64::from(m.orient == Orientation::Col);
            c[3] += u64::from(m.write);
        }
    });
    acc.gen_s += start.elapsed().as_secs_f64();
    acc.gen_mem_ops += c[0];
    acc.gen_vector += c[1];
    acc.gen_col += c[2];
    acc.gen_write += c[3];
}

/// A request the L1 replay sends to memory.
#[derive(Clone, Copy)]
enum Req {
    Read(LineKey),
    Write(LineKey, u8),
}

/// The isolated L1, prefetcher and memory of one cell's replay.
struct Replay {
    l1: LevelKind,
    probe: Probe,
    victims: Vec<Writeback>,
    prefetcher: StridePrefetcher,
    /// Whether the prefetcher's targets count towards `prefetch.targets`.
    count_targets: bool,
    mem: MainMemory,
    now: Cycle,
    batch: Vec<MemOp>,
    reqs: Vec<Req>,
}

impl Replay {
    fn new(cell: &Cell, count_targets: bool) -> Replay {
        let l1 = cell.cfg.build_hierarchy().into_levels().swap_remove(0);
        Replay {
            l1,
            probe: Probe::hit(),
            victims: Vec::new(),
            prefetcher: StridePrefetcher::new(cell.cfg.prefetch_degree.max(1)),
            count_targets,
            mem: MainMemory::new(cell.cfg.mem),
            now: 0,
            batch: Vec::with_capacity(BATCH),
            reqs: Vec::with_capacity(2 * BATCH),
        }
    }

    fn push(&mut self, op: MemOp, acc: &mut Acc) {
        self.batch.push(op);
        if self.batch.len() == BATCH {
            self.flush(acc);
        }
    }

    /// Replays the batch: L1 (`probe_into`, then `fill` on a miss), then
    /// `StridePrefetcher::observe` on every op, then the L1's memory
    /// requests through `MainMemory::read`/`write`, each timed alone.
    fn flush(&mut self, acc: &mut Acc) {
        let start = Instant::now();
        for op in &self.batch {
            let access = Access {
                word: op.word,
                orient: op.orient,
                width: if op.vector {
                    AccessWidth::Vector
                } else {
                    AccessWidth::Scalar
                },
                is_write: op.write,
                stream: op.stream,
            };
            self.l1.probe_into(&access, &mut self.probe);
            for wb in self.probe.writebacks.iter() {
                self.reqs.push(Req::Write(wb.line, wb.words()));
            }
            if self.probe.hit {
                continue;
            }
            let demand = self.probe.fills[0];
            self.reqs.push(Req::Read(demand));
            for &extra in &self.probe.fills[1..] {
                self.reqs.push(Req::Read(extra));
                self.l1.fill(extra, 0, &mut self.victims);
            }
            let dirty = match (op.write, op.vector) {
                (false, _) => 0,
                (true, true) => 0xFF,
                (true, false) => demand.offset_of(op.word).map_or(0, |off| 1u8 << off),
            };
            self.l1.fill(demand, dirty, &mut self.victims);
            for wb in self.victims.drain(..) {
                self.reqs.push(Req::Write(wb.line, wb.words()));
            }
        }
        acc.l1_replay_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut targets = 0u64;
        for op in &self.batch {
            let line = LineKey::containing(op.word, Orientation::Row).base_addr();
            targets += self.prefetcher.observe(op.stream, line).count() as u64;
        }
        acc.pf_replay_s += start.elapsed().as_secs_f64();
        acc.pf_observed += self.batch.len() as u64;
        if self.count_targets {
            acc.pf_targets += targets;
        }

        let start = Instant::now();
        for req in &self.reqs {
            let done = match *req {
                Req::Read(line) => self.mem.read(line, self.now).done,
                Req::Write(line, words) => self.mem.write(line, words, self.now).done,
            };
            self.now = self.now.max(done);
        }
        acc.mem_replay_s += start.elapsed().as_secs_f64();
        acc.mem_replay_reqs += self.reqs.len() as u64;

        self.batch.clear();
        self.reqs.clear();
    }

    fn finish(mut self, acc: &mut Acc) {
        self.flush(acc);
        acc.l1_replay_accesses += self.l1.stats().accesses;
        acc.l1_replay_hits += self.l1.stats().hits;
        acc.mem_replay_reads += self.mem.stats().reads;
        acc.mem_replay_hits += self.mem.stats().buffer_hits;
    }
}

/// Replays `cell`. The simulator decides which designs get a prefetcher;
/// its targets count only where the reference run made prefetch fills,
/// so `prefetch.fill_ratio` compares like with like.
fn replay_cell(cell: &Cell, reference: &SimReport, acc: &mut Acc) {
    let prefetched = reference.levels.iter().any(|l| l.prefetch_fills > 0);
    let mut replay = Replay::new(cell, prefetched);
    cell.src.generate(&cell.cfg.codegen, &mut |op| {
        if let TraceOp::Mem(m) = op {
            replay.push(m, acc);
        }
    });
    replay.finish(acc);
}

/// Runs the traced passes over `workload` and returns the result object
/// with every per-layer metric.
pub fn traced(workload: &str, seed: u64, digests: &Digests) -> Result<String, String> {
    let cells =
        build_cells(workload, seed).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let untraced = run_pass(&cells, digests, seed);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut acc = Acc::default();

    // Panicked cells were counted as failed by the untraced pass and are
    // left out of the traced ones.
    let live: Vec<(&Cell, &SimReport)> = cells
        .iter()
        .zip(&untraced.cells)
        .filter_map(|(c, run)| Some((c, run.report.as_ref()?)))
        .collect();
    let start = Instant::now();
    for &(cell, reference) in &live {
        attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| traced_cell(cell, &mut acc))) {
            Ok(report) if digest(&report) == digest(reference) => acc.add_report(&report),
            Ok(_) => {
                eprintln!(
                    "FAILED {}: traced report differs from simulate's",
                    cell.label
                );
                failed += 1;
            }
            Err(_) => {
                eprintln!("FAILED {}: traced simulation panicked", cell.label);
                failed += 1;
            }
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    for &(cell, reference) in &live {
        generate_cell(cell, &mut acc);
        replay_cell(cell, reference, &mut acc);
    }
    if acc.gen_mem_ops != acc.levels[0].accesses {
        eprintln!(
            "FAILED {workload}: l1.accesses {} != trace.mem_ops {}",
            acc.levels[0].accesses, acc.gen_mem_ops
        );
        failed += 1;
    }

    let untraced_s = untraced.wall.as_secs_f64();
    let sim_s = untraced.sim.as_secs_f64();
    let ops = acc.gen_mem_ops as f64;
    let demand_s = acc.demand.total_ns as f64 / 1e9;
    let l = &acc.levels;
    let level_accesses = l.iter().map(|s| s.accesses).sum::<u64>() as f64;
    let f = |n: u64| n as f64;
    let mut m: Vec<Metric> = vec![
        metric("trace.gen_s", acc.gen_s, "s"),
        metric("trace.ns_per_op", ratio(acc.gen_s * 1e9, ops), "ns/op"),
        metric("trace.mem_ops", ops, "count"),
        metric(
            "trace.vector_frac",
            ratio(f(acc.gen_vector), ops),
            "fraction",
        ),
        metric("trace.col_frac", ratio(f(acc.gen_col), ops), "fraction"),
        metric("trace.write_frac", ratio(f(acc.gen_write), ops), "fraction"),
        metric("core.self_s", acc.loop_s - demand_s - acc.gen_s, "s"),
        metric("core.sim_cycles", f(acc.cycles), "cycles"),
        metric(
            "core.sim_ipc",
            ratio(f(acc.retired_uops), f(acc.cycles)),
            "uop/cycle",
        ),
        metric("hier.demand_s", demand_s, "s"),
        metric("hier.demand_ns_p50", acc.demand.quantile(0.5), "ns"),
        metric("hier.demand_ns_p99", acc.demand.quantile(0.99), "ns"),
        metric("hier.demand_samples", f(acc.demand.count), "count"),
        metric(
            "hier.level_accesses_per_op",
            ratio(level_accesses, ops),
            "accesses/op",
        ),
        metric(
            "hier.mem_reqs_per_op",
            ratio(f(acc.mem_reads + acc.mem_writes), ops),
            "reqs/op",
        ),
    ];
    for (s, [accesses, hit_rate, fills, writebacks, extra, dups]) in l.iter().zip(LEVEL_METRICS) {
        m.extend([
            metric(accesses, f(s.accesses), "count"),
            metric(hit_rate, ratio(f(s.hits), f(s.accesses)), "fraction"),
            metric(fills, f(s.fills), "count"),
            metric(writebacks, f(s.writebacks_out), "count"),
            metric(extra, f(s.extra_tag_accesses), "count"),
            metric(dups, f(s.dup_evictions), "count"),
        ]);
    }
    m.extend([
        metric(
            "l1.replay_ns_per_access",
            ratio(acc.l1_replay_s * 1e9, f(acc.l1_replay_accesses)),
            "ns",
        ),
        metric(
            "l1.replay_hit_rate",
            ratio(f(acc.l1_replay_hits), f(acc.l1_replay_accesses)),
            "fraction",
        ),
        metric("mshr.coalesced", f(acc.mshr_coalesced), "count"),
        metric("mshr.stalls", f(acc.mshr_stalls), "count"),
        metric("prefetch.targets", f(acc.pf_targets), "count"),
        metric(
            "prefetch.replay_ns_per_op",
            ratio(acc.pf_replay_s * 1e9, f(acc.pf_observed)),
            "ns/op",
        ),
        metric("prefetch.fills", f(acc.prefetch_fills), "count"),
        metric(
            "prefetch.fill_ratio",
            ratio(f(acc.prefetch_fills), f(acc.pf_targets)),
            "fraction",
        ),
        metric("mem.reads", f(acc.mem_reads), "count"),
        metric("mem.writes", f(acc.mem_writes), "count"),
        metric(
            "mem.buffer_hit_rate",
            ratio(f(acc.mem_buffer_hits), f(acc.mem_reads)),
            "fraction",
        ),
        metric("mem.activations", f(acc.mem_activations), "count"),
        metric(
            "mem.write_drain_stalls",
            f(acc.mem_write_drain_stalls),
            "count",
        ),
        metric(
            "mem.replay_ns_per_req",
            ratio(acc.mem_replay_s * 1e9, f(acc.mem_replay_reqs)),
            "ns/req",
        ),
        metric(
            "mem.replay_buffer_hit_rate",
            ratio(f(acc.mem_replay_hits), f(acc.mem_replay_reads)),
            "fraction",
        ),
        metric(
            "bench.trace_overhead_frac",
            ratio(traced_s - untraced_s, untraced_s),
            "fraction",
        ),
    ]);
    if workload != "paper_tiny" {
        // `sim_mix` has no mda-bench harness; its harness is this
        // benchmark's own cell loop: time in `simulate`, and the rest of
        // the pass (digesting and checking reports).
        m.extend([
            metric("harness.cells", f(untraced.attempted), "count"),
            metric("harness.render_s", sim_s, "s"),
            metric("harness.csv_s", untraced_s - sim_s, "s"),
        ]);
    }
    Ok(crate::result_json(attempted, failed, &m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Hist::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 51.0);
        assert_eq!(h.quantile(1.0), (1u64 << 20) as f64);
        assert_eq!(h.count, 101);
    }

    #[test]
    fn traced_loop_reproduces_simulate() {
        for cell in build_cells("paper_tiny", 1)
            .expect("known workload")
            .iter()
            .step_by(5)
        {
            let mut acc = Acc::default();
            let traced = traced_cell(cell, &mut acc);
            let reference = mda_sim::simulate(cell.src.as_ref(), &cell.cfg);
            assert_eq!(traced, reference, "{}", cell.label);
            assert_eq!(acc.demand.count, reference.ops.mem_ops);
        }
    }
}
