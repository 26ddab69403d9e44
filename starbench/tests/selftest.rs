//! Self-tests of the benchmark. The end-to-end test runs every
//! workload once in each mode and is meant for release builds:
//!
//! ```sh
//! cargo test --release --offline --manifest-path starbench/Cargo.toml
//! ```

use starbench::bench::{self, Args, Tally};
use starbench::host::Cpus;
use starbench::json::Json;
use starbench::spec::{self, metric_named, Report, Section, METRICS};
use starbench::trace::{self_times, Span, Tracer};
use starbench::workload::{Case, Kind, Output};

#[test]
fn same_seed_gives_same_inputs_and_digest_other_seed_other_inputs() {
    for kind in Kind::ALL {
        let a = Case::generate(kind, 7);
        assert_eq!(a, Case::generate(kind, 7), "{}", kind.name());
        assert_ne!(a, Case::generate(kind, 8), "{}", kind.name());
    }
    let kind = Kind::JobsS7;
    let net = kind.build_network();
    let digest = |seed| Case::generate(kind, seed).call(&net).digest();
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "x",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(1), 15, 20),
        // Overlaps its sibling: covered time counts once.
        span(3, Some(0), 30, 60),
        // Runs past its parent: clipped to it.
        span(4, Some(0), 90, 120),
        span(5, None, 200, 210),
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 5, 30, 30, 10]);
}

#[test]
fn tracer_nests_spans_by_call_structure() {
    let mut t = Tracer::default();
    t.span("call", |t| {
        t.span("a", |t| t.span("b", |_| ()));
        t.span("c", |_| ());
    });
    t.span("d", |_| ());
    let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        [
            ("call", None),
            ("a", Some(0)),
            ("b", Some(1)),
            ("c", Some(0)),
            ("d", None)
        ]
    );
    let selfs = self_times(t.spans());
    for (s, own) in t.spans().iter().zip(selfs) {
        assert!(own <= s.duration_ns());
        assert!(s.start_ns <= s.end_ns);
    }
}

fn corrupt(out: &Output) -> Output {
    let mut bad = out.clone();
    match &mut bad {
        Output::Traffic(s) | Output::Allreduce(s) => s.makespan += 1,
        Output::Jobs { report, .. } => report.total.makespan += 1,
    }
    bad
}

#[test]
fn corrupted_output_counts_as_failed() {
    let kind = Kind::AllreduceS6;
    let net = kind.build_network();
    let case = Case::generate(kind, 3);
    let good = case.call(&net);
    case.oracle(&net, &good).expect("seed output is correct");
    let bad = corrupt(&good);
    assert!(
        case.oracle(&net, &bad).is_err(),
        "the oracle sees the corruption"
    );

    // A corrupted call after a good baseline, and a panicking call.
    let mut tally = Tally::default();
    tally.record(Ok(good.clone()));
    tally.record(Ok(bad.clone()));
    tally.record(std::panic::catch_unwind(|| -> Output {
        panic!("call failed")
    }));
    tally.record(Ok(good));
    assert_eq!((tally.attempted(), tally.failed(true)), (4, 2));

    // A corrupted baseline fails its oracle, and with it every call
    // that matched it.
    let mut tally = Tally::default();
    tally.record(Ok(bad.clone()));
    tally.record(Ok(bad));
    let oracle_ok = case.oracle(&net, tally.baseline().unwrap()).is_ok();
    assert_eq!((tally.attempted(), tally.failed(oracle_ok)), (2, 2));
}

#[test]
fn report_refuses_undeclared_and_misplaced_metrics() {
    let mut r = Report::new(Kind::UniformS9, false);
    assert!(r.set("latency_ms", 1.0).is_err(), "undeclared");
    assert!(
        r.set("net.build_s", 1.0).is_err(),
        "per-layer in an untraced run"
    );
    assert!(r.set("wall_s", f64::NAN).is_err(), "not finite");
    r.set("wall_s", 1.0).unwrap();
    assert!(r.set("wall_s", 2.0).is_err(), "set twice");
    assert!(r.finish().is_err(), "setup_s never measured");

    let mut r = Report::new(Kind::UniformS9, true);
    assert!(
        r.set("sched.drain_s", 1.0).is_err(),
        "not on this workload's path"
    );
}

#[test]
fn manifest_is_the_projection_of_the_table_and_meets_its_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let want = format!("{}\n", spec::manifest().pretty());
    assert!(
        text == want,
        "BENCHMARK.json differs from spec::manifest(); it should read:\n{want}"
    );
    assert!(text.len() <= 64 * 1024);
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!((2..=8).contains(&Kind::ALL.len()));
    let mut names: Vec<&str> = Kind::ALL.iter().map(|w| w.name()).collect();
    for w in Kind::ALL {
        assert!(name_ok(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
    }
    let setup = metric_named("setup_s").unwrap();
    let Section::EndToEnd { bound: setup_bound } = setup.section else {
        panic!("setup_s is an end-to-end metric")
    };
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in METRICS {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(m.unit.len() <= 16, "{}", m.unit);
        if let Section::EndToEnd { bound } = m.section {
            assert!(bound > 0.0 && bound <= setup_bound, "{}", m.name);
        }
        names.push(m.name);
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "every name is used once");
}

#[test]
fn args_parse_the_command_line_flags() {
    let args = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
    assert_eq!(
        args("--workload jobs-s7 --seed 42 --seconds 10 --trace 1"),
        Ok(Args {
            kind: Kind::JobsS7,
            seed: 42,
            seconds: 10.0,
            trace: true
        })
    );
    assert!(args("--workload nope").is_err());
    assert!(args("--workload jobs-s7 --trace 2").is_err());
    assert!(args("--workload jobs-s7 --bogus 1").is_err());
    assert!(args("--seed 1").is_err());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs every workload; use --release")]
fn every_declared_metric_is_printed_for_every_workload() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let args = Args {
                kind,
                seed: 5,
                seconds: 0.0,
                trace,
            };
            let out = bench::run(&args).expect("run succeeds");
            assert!(out.correct, "{} trace={trace}: {}", kind.name(), out.oracle);
            let result = bench::result_line(&out);
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed = result.get("metrics").unwrap().as_obj().unwrap();
            let declared: Vec<&str> = METRICS
                .iter()
                .filter(|m| m.section != Section::ReportLine && m.section.printed(trace))
                .map(|m| m.name)
                .collect();
            let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, declared, "{} trace={trace}", kind.name());
            for (name, v) in printed {
                let value = v.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{name}");
                if !trace {
                    assert!(value > 0.0, "{} {name} is 0", kind.name());
                }
            }
            let cpus = Cpus {
                allowed: 1,
                pinned: None,
            };
            let report = bench::report_line(&args, &out, cpus);
            assert!(report.get("metrics").unwrap().get("error_rate").is_some());
            assert!(report.get("provenance").unwrap().get("commit").is_some());
        }
    }
}
