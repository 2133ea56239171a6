//! Cross-crate invariants on the full hierarchy: dirty data written by a
//! program must reach main memory once the hierarchy is drained, through
//! any design point.

use mdacache::cache::level::{CacheLevel, CacheLevelExt};
use mdacache::sim::{HierarchyKind, SystemConfig};
use mdacache::workloads::Kernel;
use mdacache::compiler::TraceOp;
use mdacache::mem::Orientation;

#[test]
fn draining_the_hierarchy_flushes_all_dirty_data() {
    for kind in HierarchyKind::all() {
        let cfg = SystemConfig::tiny(kind);
        let src = Kernel::Ssyrk.build(32);
        let mut hierarchy = cfg.build_hierarchy();
        let mut core = mdacache::sim::Core::new(cfg.core);
        src.generate(&cfg.codegen, &mut |op| hierarchy.step(&mut core, &op));

        let final_cycle = core.finish();
        hierarchy.flush_all(final_cycle);
        for (i, level) in hierarchy.levels().iter().enumerate() {
            assert!(
                level.dirty_words().is_empty(),
                "{kind}: level {i} kept dirty words after a flush"
            );
            assert_eq!(level.occupancy().0 + level.occupancy().1, 0, "{kind}: level {i} not empty");
        }
        assert!(
            hierarchy.memory().stats().bytes_written > 0,
            "{kind}: writes never reached memory"
        );
    }
}

#[test]
fn written_words_reach_memory_in_volume() {
    // Every word the kernel writes must be written back to memory at least
    // once after a drain (per-word dirty bits may split one line into
    // several partial writebacks, but volume can never be lost).
    for kind in [HierarchyKind::Baseline1P1L, HierarchyKind::P1L2DifferentSet] {
        let cfg = SystemConfig::tiny(kind);
        let src = Kernel::Sgemm.build(24);
        let mut distinct_written = std::collections::HashSet::new();
        src.generate(&cfg.codegen, &mut |op| {
            if let TraceOp::Mem(m) = op {
                if m.write {
                    if m.vector {
                        distinct_written
                            .extend(mdacache::mem::LineKey::containing(m.word, m.orient).words());
                    } else {
                        distinct_written.insert(m.word);
                    }
                }
            }
        });

        let mut hierarchy = cfg.build_hierarchy();
        let mut core = mdacache::sim::Core::new(cfg.core);
        src.generate(&cfg.codegen, &mut |op| hierarchy.step(&mut core, &op));
        hierarchy.flush_all(core.finish());

        let written_bytes = hierarchy.memory().stats().bytes_written;
        assert!(
            written_bytes >= distinct_written.len() as u64 * 8,
            "{kind}: memory saw {written_bytes} B but the program wrote {} distinct words",
            distinct_written.len()
        );
    }
}

#[test]
fn the_2p1l_llc_only_ever_holds_row_lines() {
    // 2P1L is a 2P2L array behind 1P1L L1/L2. It needs no cache type of its
    // own because the upper levels only request and write back row lines,
    // so the 2-D array never allocates a column line or serves a hit
    // through one. Check the LLC's contents throughout each run, not just
    // at the end, so a column line that came and went is caught too.
    let cfg = SystemConfig::tiny(HierarchyKind::P2L1);
    let llc_lines = |hierarchy: &mdacache::sim::Hierarchy| {
        let mut cols = 0usize;
        let mut rows = 0usize;
        let llc = hierarchy.levels().last().expect("llc");
        llc.for_each_line(&mut |line, _| match line.orient {
            Orientation::Row => rows += 1,
            Orientation::Col => cols += 1,
        });
        (rows, cols)
    };
    for kernel in Kernel::all() {
        let src = kernel.build(cfg.default_input);
        let mut hierarchy = cfg.build_hierarchy();
        let mut core = mdacache::sim::Core::new(cfg.core);
        let mut ops = 0u64;
        let mut peak_rows = 0;
        src.generate(&cfg.codegen, &mut |op| {
            hierarchy.step(&mut core, &op);
            ops += 1;
            if ops.is_multiple_of(1024) {
                let (rows, cols) = llc_lines(&hierarchy);
                assert_eq!(cols, 0, "{}: column line in the 2P1L LLC after {ops} ops", kernel.name());
                peak_rows = peak_rows.max(rows);
            }
        });
        let (rows, cols) = llc_lines(&hierarchy);
        assert_eq!(cols, 0, "{}: column line in the 2P1L LLC at the end", kernel.name());
        assert!(peak_rows.max(rows) > 0, "{}: the LLC never held a line", kernel.name());
        let stats = hierarchy.levels().last().expect("llc").stats();
        assert_eq!(stats.misoriented_hits, 0, "{}: mis-oriented LLC hit", kernel.name());
        assert_eq!(stats.col_scalar + stats.col_vector, 0, "{}: column access at the LLC", kernel.name());
    }
}
