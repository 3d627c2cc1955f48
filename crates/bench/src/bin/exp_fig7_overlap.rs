//! Regenerates Fig. 7 / Sect. VI: detection of overlapping responses.
//! The paper uses 2000 trials; set REPRO_TRIALS to change. Pass
//! `--threads N` (or set UWB_CAMPAIGN_THREADS) to pick the worker
//! count — the report is bit-identical for any value. Pass `--stream`
//! to drive the same trials through the streaming `RangingPipeline`
//! (one round at a time, single warmed context) instead of the batch
//! campaign: the stdout report is byte-identical, the equivalence
//! ci.sh diffs on every run.

use repro_bench::experiments::fig7::{self, Fig7Report};
use uwb_campaign::artifact::{results_dir, CsvWriter};

const BIN: &str = "exp_fig7_overlap";

fn main() {
    let trials = repro_bench::trials_from_env(2000);
    let (obs, leftover) = match repro_bench::ExpHarness::init_with(BIN, std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{}", repro_bench::usage_line(BIN, "[--stream] "));
            std::process::exit(2);
        }
    };
    let stream = match leftover.as_slice() {
        [] => false,
        [flag] if flag == "--stream" => true,
        other => {
            eprintln!(
                "unrecognised arguments: {other:?}\n{}",
                repro_bench::usage_line(BIN, "[--stream] ")
            );
            std::process::exit(2);
        }
    };

    let started = std::time::Instant::now();
    let (fig, threads, elapsed_s): (Fig7Report, usize, f64) = if stream {
        let fig = fig7::run_streaming_paper(trials, 17);
        let elapsed = started.elapsed().as_secs_f64();
        eprintln!("streamed {trials} rounds through one warmed context in {elapsed:.3}s");
        (fig, 1, elapsed)
    } else {
        let report = fig7::run_campaign(trials, 17, obs.threads);
        eprintln!("{}", report.timing_line());
        (
            report.collector.into(),
            report.threads,
            report.elapsed.as_secs_f64(),
        )
    };
    println!("{fig}");

    let path = results_dir().join("fig7_overlap.csv");
    let write = || -> std::io::Result<()> {
        let mut csv = CsvWriter::create(
            &path,
            &[
                "total_trials",
                "overlapping_trials",
                "search_subtract_rate",
                "threshold_rate",
                "threads",
                "elapsed_s",
            ],
        )?;
        csv.write_row(&[
            fig.total_trials.into(),
            fig.overlapping_trials.into(),
            fig.search_subtract_rate.into(),
            fig.threshold_rate.into(),
            threads.into(),
            elapsed_s.into(),
        ])?;
        csv.finish()
    };
    match write() {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    obs.finish();
}
