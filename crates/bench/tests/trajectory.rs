//! `BENCH_TRAJECTORY.json`, the repository's record of every parent/change
//! pairs table a change reported: each record must agree with itself.

use std::collections::HashSet;

use serde::{Deserialize, Value};

const TRAJECTORY: &str = include_str!("../../../BENCH_TRAJECTORY.json");
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// The medians are transcribed at 3–4 significant figures and the ratio at
/// three decimals, so a ratio recomputed from them lands this close.
const RATIO_TOLERANCE: f64 = 0.003;

/// One metric on one workload and seed, parent against change.
#[derive(Debug, Deserialize)]
#[serde(deny_unknown_fields)]
struct Record {
    id: String,
    pr: u32,
    commit: String,
    workload: String,
    /// `None` where the table did not name the seed.
    seed: Option<u64>,
    metric: String,
    parent_median: f64,
    parent_q1: Option<f64>,
    parent_q3: Option<f64>,
    change_median: f64,
    /// `change_median / parent_median`, as reported.
    ratio: f64,
    pairs: u32,
    /// Pairs in which the change's run beat the parent's.
    wins: u32,
}

/// The end-to-end metrics `BENCHMARK.json` declares, with whether higher
/// is better.
fn directions() -> Vec<(String, bool)> {
    let doc: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let field = |m: &[(String, Value)], k: &str| {
        m.iter().find(|(key, _)| key == k).map(|(_, v)| v.as_str().expect("a string").to_owned())
    };
    let map = doc.as_map().expect("an object");
    let list = map.iter().find(|(k, _)| k == "end_to_end").expect("end_to_end").1.as_seq();
    list.expect("a list")
        .iter()
        .map(|m| {
            let m = m.as_map().expect("an object");
            (field(m, "name").expect("name"), field(m, "better").expect("better") == "higher")
        })
        .collect()
}

/// Every inconsistency in `json`, one line each.
fn check(json: &str) -> Vec<String> {
    let records: Vec<Record> = match serde_json::from_str(json) {
        Ok(r) => r,
        Err(e) => return vec![format!("does not parse: {e}")],
    };
    let directions = directions();
    let mut ids = HashSet::new();
    let mut errors = Vec::new();
    for r in &records {
        let mut fail = |what: String| errors.push(format!("{}: {what}", r.id));
        if !ids.insert(&r.id) {
            fail("duplicate id".into());
        }
        let seed = r.seed.map(|s| format!("s{s}-")).unwrap_or_default();
        if r.id != format!("pr{}-{}-{seed}{}", r.pr, r.workload, r.metric) {
            fail("the id is not pr<PR>-<workload>-s<seed>-<metric>".into());
        }
        if r.commit.len() < 7 {
            fail("needs the change's commit".into());
        }
        let Some(&(_, higher)) = directions.iter().find(|(name, _)| *name == r.metric) else {
            fail(format!("`{}` is no end-to-end metric of BENCHMARK.json", r.metric));
            continue;
        };
        let want = r.change_median / r.parent_median;
        if !(r.parent_median > 0.0 && (r.ratio - want).abs() <= RATIO_TOLERANCE) {
            fail(format!("ratio {} but the medians give {want:.4}", r.ratio));
        }
        if let (Some(q1), Some(q3)) = (r.parent_q1, r.parent_q3) {
            if !(q1 <= r.parent_median && r.parent_median <= q3) {
                fail(format!("parent median outside its quartiles [{q1}, {q3}]"));
            }
        }
        // When the change wins every pair, each order statistic of its runs
        // beats the parent's, the median included; when it wins none, none
        // does.
        let better = if higher { want > 1.0 } else { want < 1.0 };
        if r.pairs == 0 || r.wins > r.pairs {
            fail(format!("{} wins of {} pairs", r.wins, r.pairs));
        } else if (r.wins == r.pairs && !better) || (r.wins == 0 && better) {
            let side = if better { "better" } else { "worse" };
            fail(format!("{}/{} wins but the change's median is the {side} one", r.wins, r.pairs));
        }
    }
    errors
}

#[test]
fn every_record_agrees_with_its_own_medians_and_pairs() {
    let errors = check(TRAJECTORY);
    assert!(errors.is_empty(), "BENCH_TRAJECTORY.json:\n{}", errors.join("\n"));
}

#[test]
fn a_wrong_ratio_or_win_count_is_caught() {
    let record = |ratio: &str, wins: u32| {
        format!(
            r#"[{{"id": "pr1-train_dp2-s7-throughput_per_cpu_s", "pr": 1,
                "commit": "0000000", "workload": "train_dp2", "seed": 7,
                "metric": "throughput_per_cpu_s", "parent_median": 100.0,
                "parent_q1": 99.0, "parent_q3": 101.0, "change_median": 120.0,
                "ratio": {ratio}, "pairs": 10, "wins": {wins}}}]"#
        )
    };
    assert_eq!(check(&record("1.2", 10)), Vec::<String>::new());
    assert!(check(&record("1.25", 10))[0].contains("ratio 1.25"));
    assert!(check(&record("1.2", 11))[0].contains("11 wins of 10"));
    assert!(check(&record("1.2", 0))[0].contains("0/10 wins"));
}
