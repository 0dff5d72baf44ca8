//! Tiny-world smoke of every workload's shape: each run prints every
//! metric `BENCHMARK.json` declares, with its unit, and passes every
//! check; results repeat exactly across runs of one seed and between the
//! traced and untraced runs.

use perigee_telemetry::JsonValue;
use roundbench::bench::{run, Args, Outcome};
use roundbench::workload::{Workload, WORKLOADS};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Args {
        workload: workload.tiny(),
        seed: 7,
        seconds: 1.0,
        trace,
    })
}

/// The printed result line carries exactly `expected`, with units.
fn assert_prints(outcome: &Outcome, expected: &[(String, String)], what: &str) {
    assert!(
        outcome.correct,
        "{what}: checks failed: {:#?}",
        outcome.header
    );
    assert_eq!(outcome.failed, 0, "{what}");
    assert!(outcome.attempted >= 1, "{what}");
    let line = JsonValue::parse(&outcome.json()).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    let metrics = line
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{what}: {name}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, expected, "{what}: metric names and units");
    for m in &outcome.metrics {
        assert!(m.value.is_finite() && m.samples >= 1, "{what}: {m:?}");
    }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        WORKLOADS.map(|w| w.name),
        "BENCHMARK.json lists every workload"
    );

    for w in WORKLOADS {
        let first = tiny(w, false);
        assert_prints(&first, &end_to_end, w.name);
        for m in &first.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} must never be 0",
                w.name,
                m.name
            );
        }
        let again = tiny(w, false);
        assert_eq!(first.digest, again.digest, "{}: digest repeats", w.name);
        assert_eq!(
            value(&first, "lambda90_ms").to_bits(),
            value(&again, "lambda90_ms").to_bits(),
            "{}: λ90 repeats",
            w.name
        );

        let traced = tiny(w, true);
        assert_prints(&traced, &per_layer, &format!("{} traced", w.name));
        assert_eq!(
            first.digest, traced.digest,
            "{}: tracing changed results",
            w.name
        );
        // Named layer time over the engine's round CPU. Full-size worlds
        // reach 0.9 and a run under it is flagged; in tiny two-thread
        // worlds the engine's thread start-up, which no layer names, costs
        // up to a quarter of a round. A replay that lost a dominant layer
        // would still fall far under this floor.
        let coverage = value(&traced, "trace.coverage");
        assert!(
            coverage >= 0.5,
            "{}: named layers cover only {coverage} of the round",
            w.name
        );
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |a: &[&str]| Args::parse(a.iter().map(|s| s.to_string()));
    assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
    assert!(parse(&["--workload", "blocks_1k", "--seconds", "1"]).is_err());
    assert!(parse(&["--workload", "blocks_1k", "--seed", "1", "--seconds", "0"]).is_err());
    assert!(parse(&[
        "--workload",
        "blocks_1k",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "2"
    ])
    .is_err());
    let ok = parse(&[
        "--workload",
        "hostile_1k",
        "--seed",
        "3",
        "--seconds",
        "2",
        "--trace",
        "1",
    ])
    .expect("valid");
    assert!(ok.trace && ok.seed == 3 && ok.workload.name == "hostile_1k");
}
