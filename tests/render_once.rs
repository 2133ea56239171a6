//! `figures --csv` writes its CSV files from the run it just rendered, so
//! rendering plus CSV emission simulates each cell once.
//!
//! This is the only test in its file because the cell counter is
//! process-wide: other tests running in the same process would add to it.

use mda_bench::experiments::experiment;
use mda_bench::{parallel, Scale};

#[test]
fn fig11_text_and_csvs_come_from_one_simulation_per_cell() {
    let fig11 = experiment("fig11").expect("fig11 is a figures experiment");
    parallel::take_cell_count();
    let out = (fig11.run)(Scale::Tiny);
    // The baseline plus three MDA designs, times seven kernels.
    assert_eq!(parallel::take_cell_count(), 4 * 7);
    let names: Vec<&str> = out.csvs.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["fig11_hit_rate", "fig11_fills"]);
    assert!(out.text.contains("Fig. 11 —") && out.text.contains("Fig. 11 (companion)"));
}
