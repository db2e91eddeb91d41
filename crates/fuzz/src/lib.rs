//! # wcp-fuzz — differential conformance fuzzing for WCP detection
//!
//! Theorem 3.2 of the paper states that the first consistent cut
//! satisfying a weak conjunctive predicate is *unique*. That turns the
//! whole workspace into its own test oracle: the six offline detector
//! families, the online actor stacks, the streaming checker, and the
//! socket peers must all report the same verdict and the same scope
//! projection — and the Cooper–Marzullo lattice enumeration gives ground
//! truth on small instances.
//!
//! This crate exploits that:
//!
//! - [`FuzzCase`] describes one randomized check (workload, scope, channel
//!   order, fault schedule) and round-trips through JSON;
//! - [`check_case`] runs the full detector battery and reports every
//!   [`Divergence`] (wrong verdict, metrics that don't replay, or a
//!   panic);
//! - [`shrink()`] deterministically reduces a diverging case to a minimal
//!   repro;
//! - [`run_campaign`] drives seeded campaigns (`wcp fuzz --seed S
//!   --cases K`), and repros are pinned under `tests/corpus/` where
//!   `tests/fuzz_corpus.rs` replays them forever.
//!
//! Everything is deterministic: a campaign is a pure function of its seed,
//! and shrinking is a fixed-priority ladder with no randomness, so a CI
//! failure reproduces exactly on a developer machine.

pub mod campaign;
pub mod case;
pub mod oracle;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, FoundBug};
pub use case::{corpus_entry, parse_corpus_entry, FuzzCase, CASE_SCHEMA};
pub use oracle::{check_case, CheckOptions, Divergence, DivergenceKind, SabotagedDetector};
pub use shrink::shrink;

#[cfg(test)]
mod tests {
    use super::*;

    /// The planted-mutation self-test demanded by the acceptance criteria:
    /// with the sabotaged detector in the battery, a campaign finds the
    /// mutation, and the shrinker reduces it to a tiny repro (≤ 3
    /// processes, ≤ 4 intervals per process) — deterministically.
    #[test]
    fn sabotaged_detector_is_found_and_shrunk_small() {
        let mut config = CampaignConfig::new(0xFACADE, 40);
        config.shrink = true;
        config.check.sabotage = true;
        config.check.include_net = false; // keep the self-test fast
        let report = run_campaign(&config);
        let planted: Vec<_> = report
            .bugs
            .iter()
            .filter(|b| b.divergences.iter().any(|d| d.detector == "sabotaged"))
            .collect();
        assert!(
            !planted.is_empty(),
            "campaign failed to find the planted mutation"
        );
        for bug in &planted {
            let min = bug.shrunk.as_ref().expect("shrinking was enabled");
            assert!(
                min.gen.processes <= 3,
                "repro not minimal: {} processes in {min:?}",
                min.gen.processes
            );
            assert!(
                min.gen.events_per_process <= 4,
                "repro not minimal: {} intervals in {min:?}",
                min.gen.events_per_process
            );
            assert!(bug.shrink_steps > 0, "shrinker accepted no steps");
        }

        // Determinism: the same seed reproduces the same campaign.
        let again = run_campaign(&config);
        assert_eq!(report.cases_run, again.cases_run);
        assert_eq!(report.bugs.len(), again.bugs.len());
        for (a, b) in report.bugs.iter().zip(&again.bugs) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.case, b.case);
            assert_eq!(a.divergences, b.divergences);
            assert_eq!(a.shrunk, b.shrunk);
            assert_eq!(a.shrink_steps, b.shrink_steps);
        }
    }

    /// The bound auditor passes on a healthy fixed-seed sweep: every
    /// case's merged telemetry timeline stays within the §3.4 limits.
    #[test]
    fn bound_audit_is_clean_on_fixed_seed() {
        let mut config = CampaignConfig::new(7, 15);
        config.check.include_net = false;
        config.check.audit_bounds = true;
        let report = run_campaign(&config);
        assert_eq!(
            report.bugs.len(),
            0,
            "bound audit flagged a healthy run:\n{}",
            report.summary_table()
        );
    }

    /// The auditor's own self-test: with every limit sabotaged to zero,
    /// the audit must flag (essentially) every case — an auditor that
    /// stays silent under impossible limits is not checking anything.
    #[test]
    fn sabotaged_bounds_are_reported() {
        let mut config = CampaignConfig::new(7, 10);
        config.check.include_net = false;
        config.check.sabotage_bounds = true;
        let report = run_campaign(&config);
        let bound_bugs = report
            .bugs
            .iter()
            .flat_map(|b| &b.divergences)
            .filter(|d| d.kind == DivergenceKind::Bounds)
            .count();
        assert!(
            bound_bugs > 0,
            "auditor reported nothing under zeroed limits"
        );
    }

    /// The work-optimal detector's multi-thread leg is clean when forced
    /// on every case of a fixed-seed sweep: its verdict, metrics and
    /// event stream stay bit-identical to the single-thread run.
    #[test]
    fn forced_parallel_detect_is_clean_on_fixed_seed() {
        let mut config = CampaignConfig::new(23, 15);
        config.check.include_net = false;
        config.check.force_parallel_detect = true;
        let report = run_campaign(&config);
        assert_eq!(
            report.bugs.len(),
            0,
            "forced parallel-detect leg diverged:\n{}",
            report.summary_table()
        );
    }

    /// A healthy battery produces a clean campaign: no divergences on a
    /// fixed-seed sweep (net stacks off to keep unit tests fast; the
    /// integration smoke campaign in `scripts/verify.sh` covers them).
    #[test]
    fn clean_campaign_on_fixed_seed() {
        let mut config = CampaignConfig::new(42, 15);
        config.check.include_net = false;
        let report = run_campaign(&config);
        assert_eq!(
            report.bugs.len(),
            0,
            "unexpected divergences:\n{}",
            report.summary_table()
        );
        assert_eq!(report.cases_run, 15);
    }
}
