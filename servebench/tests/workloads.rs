//! The benchmark's own checks, on small versions of each workload.

use servebench::run::{measure, Report};
use servebench::workload::{Workload, NAMES};

/// Requests in a small run: enough for every template group of
/// `prefill-int8` to get followers, few enough for a debug build.
const SMALL: usize = 12;

fn small(name: &str) -> Workload {
    Workload {
        requests: SMALL,
        ..Workload::by_name(name).expect("known workload")
    }
}

fn per_layer(report: &Report, name: &str) -> f64 {
    report
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect("reported")
}

fn model_metrics(report: &Report) -> Vec<(String, f64)> {
    report
        .end_to_end
        .iter()
        .filter(|m| m.name.starts_with("model_"))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn a_small_run_of_each_workload_is_correct_and_complete() {
    for name in NAMES {
        let report = measure(&small(name), 7, 0.0, false);
        assert!(report.correct(), "{name}: {:?}", report.failures);
        assert_eq!(report.attempted, SMALL);
        assert!(report.failed_ids.is_empty(), "{name}: fail_frac must be 0");
        for m in &report.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn the_same_seed_gives_identical_model_metrics() {
    for name in NAMES {
        let w = small(name);
        let a = measure(&w, 11, 0.0, false);
        let b = measure(&w, 11, 0.0, true);
        assert_eq!(model_metrics(&a), model_metrics(&b), "{name}");
        assert_eq!(model_metrics(&a).len(), 6);
    }
}

#[test]
fn a_different_seed_gives_a_different_trace() {
    for name in NAMES {
        let w = Workload::by_name(name).expect("known workload");
        assert_eq!(
            w.requests(3),
            w.requests(3),
            "{name}: same seed, same trace"
        );
        assert_ne!(w.requests(3), w.requests(4), "{name}: new seed, new trace");
    }
}

#[test]
fn only_prefill_int8_borrows_prefixes() {
    for name in NAMES {
        let report = measure(&small(name), 5, 0.0, true);
        let frac = per_layer(&report, "kv.prefix_token_frac");
        if name == "prefill-int8" {
            assert!(frac > 0.0, "templates must be shared while resident");
        } else {
            assert_eq!(frac, 0.0, "{name} shares no prefixes");
        }
        let integer = per_layer(&report, "kernel.integer_mac_frac");
        assert_eq!(integer > 0.0, name == "prefill-int8", "{name}: {integer}");
    }
}

#[test]
fn arrivals_span_exactly_requests_over_rate() {
    for name in NAMES {
        let w = Workload::by_name(name).expect("known workload");
        let requests = w.requests(9);
        let span_us = (w.requests as f64 / w.rate_per_s * 1e6).round() as u64;
        assert_eq!(requests.last().expect("non-empty").arrival_us, span_us);
        assert!(requests
            .windows(2)
            .all(|p| p[0].arrival_us <= p[1].arrival_us));
        let max_prompt = requests.iter().map(|r| r.prompt.len()).max().unwrap_or(0);
        assert!(max_prompt <= w.model.max_seq);
    }
}
